package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func closeT(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("beta"), []byte("two")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("alpha"), []byte("one-v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	closeT(t, s)

	s2 := openT(t, dir)
	defer closeT(t, s2)
	if got, ok := s2.Get([]byte("alpha")); !ok || string(got) != "one-v2" {
		t.Fatalf("alpha = %q,%v; want one-v2 (last writer wins)", got, ok)
	}
	if got, ok := s2.Get([]byte("beta")); !ok || string(got) != "two" {
		t.Fatalf("beta = %q,%v; want two", got, ok)
	}
	if n := s2.Stats().Entries; n != 2 {
		t.Fatalf("Entries = %d; want 2", n)
	}
}

func TestAppendBatchDedupsIdenticalValues(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer closeT(t, s)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := s.Stats().DiskBytes
	// Re-appending the identical value is the warm-run backfill case: it
	// must be a no-op on disk.
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put dup: %v", err)
	}
	if after := s.Stats().DiskBytes; after != before {
		t.Fatalf("identical re-append grew disk: %d -> %d", before, after)
	}
	if got := s.Stats().Appends; got != 1 {
		t.Fatalf("Appends = %d; want 1", got)
	}
}

// logPath returns the path of dir's log, failing unless it is the only
// file there.
func logPath(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(des) != 1 || des[0].Name() != logName {
		t.Fatalf("directory holds %v; want only %s", des, logName)
	}
	return filepath.Join(dir, logName)
}

func TestTornTailTruncatedAndBackfilled(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Put([]byte("keep"), []byte("safe")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("torn"), []byte("lost-by-crash")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	// Simulate a crash mid-append: chop the last few bytes of the final
	// record so its frame no longer parses.
	path := logPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	s2 := openT(t, dir)
	if _, ok := s2.Get([]byte("keep")); !ok {
		t.Fatal("record before the torn tail was lost")
	}
	if _, ok := s2.Get([]byte("torn")); ok {
		t.Fatal("torn record served despite bad frame")
	}
	if got := s2.Stats().TornDropped; got != 1 {
		t.Fatalf("TornDropped = %d; want 1", got)
	}
	// The store must have truncated the torn bytes so new appends land on a
	// clean frame; backfilling the record makes it durable again.
	if err := s2.Put([]byte("torn"), []byte("lost-by-crash")); err != nil {
		t.Fatalf("backfill Put: %v", err)
	}
	closeT(t, s2)

	s3 := openT(t, dir)
	defer closeT(t, s3)
	if got, ok := s3.Get([]byte("torn")); !ok || string(got) != "lost-by-crash" {
		t.Fatalf("backfilled record = %q,%v; want lost-by-crash", got, ok)
	}
	if got := s3.Stats().TornDropped; got != 0 {
		t.Fatalf("TornDropped after repair = %d; want 0", got)
	}
}

func TestMidSegmentCorruptionAbandonsRemainder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put([]byte(k), []byte("val-"+k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	closeT(t, s)

	// Flip one payload byte of the middle record: its CRC fails, and the
	// scanner cannot trust any later frame in the log.
	path := logPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	idx := bytes.Index(data, []byte("val-b"))
	if idx < 0 {
		t.Fatal("middle record not found")
	}
	data[idx] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := openT(t, dir)
	if _, ok := s2.Get([]byte("a")); !ok {
		t.Fatal("record before corruption was lost")
	}
	if _, ok := s2.Get([]byte("b")); ok {
		t.Fatal("corrupt record served")
	}
	if _, ok := s2.Get([]byte("c")); ok {
		t.Fatal("record after corruption served (no trustworthy frame)")
	}
	if got := s2.Stats().CorruptDropped; got != 1 {
		t.Fatalf("CorruptDropped = %d; want 1", got)
	}
	// The abandoned suffix is truncated, so an append lands on a clean
	// frame and the next open drops nothing.
	if err := s2.Put([]byte("d"), []byte("val-d")); err != nil {
		t.Fatalf("Put after corruption: %v", err)
	}
	closeT(t, s2)
	s3 := openT(t, dir)
	defer closeT(t, s3)
	if st := s3.Stats(); st.CorruptDropped != 0 || st.Entries != 2 {
		t.Fatalf("reopen after repair: %+v; want 2 entries, nothing dropped", st)
	}
}

func TestForeignGenerationColdStarts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	path := logPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(magic)+3]++ // bump the generation field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := openT(t, dir)
	defer closeT(t, s2)
	if n := s2.Stats().Entries; n != 0 {
		t.Fatalf("Entries = %d after generation bump; want cold start", n)
	}
	if got := s2.Stats().GenerationSkips; got != 1 {
		t.Fatalf("GenerationSkips = %d; want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("foreign log not removed: %v", err)
	}
}

// genOneRecord encodes one generation-1 record frame:
// [len][crc32c][ts][klen][key][val].
func genOneRecord(ts uint32, key, val string) []byte {
	payload := binary.BigEndian.AppendUint32(nil, ts)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(key)))
	payload = append(payload, key...)
	payload = append(payload, val...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// Sessions that append to one directory share its one log: nothing
// rotates, and every session's records are served.
func TestOneLogPerDirectory(t *testing.T) {
	dir := t.TempDir()
	for i, k := range []string{"a", "b", "c"} {
		s := openT(t, dir)
		if n := s.Stats().Entries; n != i {
			t.Fatalf("session %d opened with %d records; want %d", i, n, i)
		}
		if err := s.Put([]byte(k), bytes.Repeat([]byte{'x'}, 64)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		closeT(t, s)
	}
	fi, err := os.Stat(logPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	defer closeT(t, s)
	if st := s.Stats(); st.Entries != 3 || st.DiskBytes != fi.Size() {
		t.Fatalf("stats %+v; want 3 entries over the log's %d bytes", st, fi.Size())
	}
}
