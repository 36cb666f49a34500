package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzSegment feeds Open a segment with a valid header and an arbitrary
// body: the decoder every byte read back from disk goes through. Retention
// is off and the clock fixed, so only the decoder decides what is served.
func FuzzSegment(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	rec := func(key, val string) []byte {
		return appendRecord(nil, now.Unix(), []byte(key), []byte(val))
	}
	two := append(rec("alpha", "one"), rec("beta", "two")...)
	flipped := append([]byte(nil), two...)
	flipped[4] ^= 0xff // first record's CRC
	// A CRC-valid frame whose key length runs past the frame.
	payload := binary.BigEndian.AppendUint32(nil, uint32(now.Unix()))
	payload = binary.BigEndian.AppendUint32(payload, 1<<16)
	payload = append(payload, "kv"...)
	keyPast := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	keyPast = binary.BigEndian.AppendUint32(keyPast, crc32.Checksum(payload, castagnoli))
	keyPast = append(keyPast, payload...)

	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add(flipped)
	f.Add(append(rec("alpha", "one"), keyPast...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		hdr := segHeader(1)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), append(hdr[:], body...), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir, TTL: -1, MaxBytes: -1, Now: func() time.Time { return now }}
		ro := opts
		ro.ReadOnly = true

		served, _ := snapshot(t, ro)
		repaired, _ := snapshot(t, opts)
		if !reflect.DeepEqual(served, repaired) {
			t.Fatalf("read-only open served %v, read-write open %v", served, repaired)
		}
		again, st := snapshot(t, opts)
		if st.TornDropped != 0 || st.CorruptDropped != 0 || st.GenerationSkips != 0 {
			t.Fatalf("open after repair still dropped: torn %d, corrupt %d, generation %d",
				st.TornDropped, st.CorruptDropped, st.GenerationSkips)
		}
		if !reflect.DeepEqual(again, repaired) {
			t.Fatalf("open after repair served %v, want %v", again, repaired)
		}
	})
}

// snapshot opens a store with opts and returns its live records and stats.
func snapshot(t *testing.T, opts Options) (map[string]string, Stats) {
	t.Helper()
	s := openT(t, opts)
	recs := map[string]string{}
	s.Range(func(key string, val []byte, _ int64) { recs[key] = string(val) })
	st := s.Stats()
	closeT(t, s)
	return recs, st
}
