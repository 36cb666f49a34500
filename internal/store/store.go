// Package store implements the on-disk half of the proof-outcome cache: an
// append-only, crash-safe, content-addressed record store. Every goal/state
// identity is a pure 128-bit structural key and a search outcome is a pure
// function of those keys plus the environment, so outcomes can be persisted
// and reused across processes: repeated sweeps and CI invocations
// warm-start instead of recomputing.
//
// The layout is one log file per directory: a generation header, then
// length-prefixed, checksummed records, with the full live key set held in
// an in-memory index. Writers only ever append, and the last record for a
// key wins. Nothing is rewritten, rotated or expired: a recorded -all sweep
// at a new seed or corpus adds about 260 KB, and deleting the directory
// reclaims it. The generation header makes a format bump a clean cold
// start instead of a misparse of old bytes.
//
// Crash safety is by construction: a torn final record (a crash mid-append)
// fails its length or checksum check and is truncated away on the next
// open; everything before it is intact because records are never updated in
// place. Invalidation is also by construction — the cache layers above key
// every record on content hashes (corpus, environment, state), so an edit
// changes the key rather than staling the value.
package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Generation is the on-disk format version. A log written by a different
// generation is discarded at open (a cold start), never misparsed.
// Generation 1 wrote numbered, rotated segment files whose records carried
// a timestamp; those files are removed at open.
const Generation = 2

// magic identifies the log file of this store.
const magic = "LFSQPRF\n"

// logName is the log file's name inside the store directory.
const logName = "proofs.log"

const (
	headerSize = len(magic) + 4 // magic + generation(4)
	recHeader  = 8              // length(4) + crc(4)
)

// castagnoli is the CRC-32C table (the checksum used by modern log formats;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Rec is one key/value record for AppendBatch.
type Rec struct {
	Key []byte
	Val []byte
}

// Stats is a point-in-time snapshot of the store's counters, for the
// cache-stats line and the bench harness.
type Stats struct {
	Entries   int   `json:"entries"`
	DiskBytes int64 `json:"disk_bytes"`
	// Gets/Hits count index lookups; Appends counts records written this
	// process (after batch dedup).
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Appends int64 `json:"appends"`
	// TornDropped counts tail records truncated at open (crash mid-append);
	// CorruptDropped counts records abandoned on a checksum mismatch.
	TornDropped    int64 `json:"torn_dropped"`
	CorruptDropped int64 `json:"corrupt_dropped"`
	// GenerationSkips counts files discarded at open for a foreign
	// generation (format bump = cold start).
	GenerationSkips int64 `json:"generation_skips"`
}

// Store is the on-disk record store. All methods are safe for concurrent
// use; writes are serialized internally. One process per directory: the
// store does no cross-process locking.
type Store struct {
	path string

	mu     sync.Mutex
	index  map[string][]byte
	log    *os.File // opened for append on the first write
	size   int64    // bytes in the log file
	stats  Stats
	closed bool
}

// Open creates dir if needed, removes the files of older generations, and
// loads every valid record of the log into memory, truncating a torn or
// corrupt tail so the next append starts on a clean frame.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{path: filepath.Join(dir, logName), index: make(map[string][]byte)}
	if err := s.removeSegments(dir); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// removeSegments deletes the segment files of generation 1 (seg-*.log, and
// seg-*.log.tmp from an interrupted compaction): a directory written by
// that format cold-starts.
func (s *Store) removeSegments(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "seg-") || !(strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".log.tmp")) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
		s.stats.GenerationSkips++
	}
	return nil
}

// header renders the log header: magic, generation.
func header() [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[len(magic):], Generation)
	return hdr
}

// load reads the log into the index. The log may legally end in a torn
// record (crash mid-append). A checksum failure anywhere abandons the rest
// of the log — later records have no trustworthy frame to resync on — but
// earlier records are unaffected. Either way the bad suffix is truncated:
// whoever recomputes the lost records re-appends them (the backfill
// property the eval tests pin).
func (s *Store) load() error {
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic ||
		binary.BigEndian.Uint32(data[len(magic):headerSize]) != Generation {
		// Foreign or truncated-below-header log: cold-start it away.
		s.stats.GenerationSkips++
		return os.Remove(s.path)
	}
	off := headerSize
	for off < len(data) {
		if len(data)-off < recHeader {
			s.stats.TornDropped++
			break
		}
		length := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if length < 4 || len(data)-off-recHeader < length {
			s.stats.TornDropped++
			break
		}
		payload := data[off+recHeader : off+recHeader+length]
		if crc32.Checksum(payload, castagnoli) != crc {
			// A corrupt record mid-file is not a torn tail; count it
			// separately and abandon the unreachable remainder.
			s.stats.CorruptDropped++
			break
		}
		klen := int(binary.BigEndian.Uint32(payload))
		if klen < 0 || 4+klen > length {
			s.stats.CorruptDropped++
			break
		}
		s.index[string(payload[4:4+klen])] = append([]byte(nil), payload[4+klen:]...)
		off += recHeader + length
	}
	if off < len(data) {
		if err := os.Truncate(s.path, int64(off)); err != nil {
			return err
		}
	}
	s.size = int64(off)
	return nil
}

// Get returns the stored value for key. The returned slice is the index's
// backing array: callers must not mutate it.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	val, ok := s.index[string(key)]
	if ok {
		s.stats.Hits++
	}
	return val, ok
}

// Holds reports whether key's live record holds exactly val, without
// counting a lookup.
func (s *Store) Holds(key, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.index[string(key)]
	return ok && string(old) == string(val)
}

// Range calls f for every live record. Iteration order is unspecified;
// callers that need determinism must collect and sort.
func (s *Store) Range(f func(key string, val []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.index {
		f(k, v)
	}
}

// Put appends one record (AppendBatch of one).
func (s *Store) Put(key, val []byte) error {
	return s.AppendBatch([]Rec{{Key: key, Val: val}})
}

// AppendBatch appends records in one write + one fsync, updating the index.
// Records whose key already holds a byte-identical value are skipped, so
// re-recording a warm run's results (the backfill sweep) is idempotent on
// disk. The store's lock is held through the write and the fsync.
func (s *Store) AppendBatch(recs []Rec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: append to closed store")
	}
	var buf []byte
	var applied []Rec
	for _, r := range recs {
		if old, ok := s.index[string(r.Key)]; ok && string(old) == string(r.Val) {
			continue
		}
		buf = appendRecord(buf, r.Key, r.Val)
		applied = append(applied, r)
	}
	if len(buf) == 0 {
		return nil
	}
	if err := s.openLog(); err != nil {
		return err
	}
	if _, err := s.log.Write(buf); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.size += int64(len(buf))
	for _, r := range applied {
		s.index[string(r.Key)] = append([]byte(nil), r.Val...)
		s.stats.Appends++
	}
	return nil
}

// appendRecord encodes one record frame onto buf:
// [len][crc32c][klen][key][val], the CRC covering everything after itself.
func appendRecord(buf []byte, key, val []byte) []byte {
	length := 4 + len(key) + len(val)
	var hdr [recHeader + 4]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(length))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(key)))
	crc := crc32.Checksum(hdr[8:], castagnoli)
	crc = crc32.Update(crc, castagnoli, key)
	crc = crc32.Update(crc, castagnoli, val)
	binary.BigEndian.PutUint32(hdr[4:], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// openLog opens the log for appending, writing the header when the file is
// new. A run that appends nothing never touches the disk.
func (s *Store) openLog() error {
	if s.log != nil {
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if s.size == 0 {
		hdr := header()
		if _, err := f.Write(hdr[:]); err != nil {
			return closeOnErr(f, err)
		}
		if err := f.Sync(); err != nil {
			return closeOnErr(f, err)
		}
		s.size = int64(headerSize)
	}
	s.log = f
	return nil
}

// closeOnErr closes f after a failed write, preserving the original error.
func closeOnErr(f *os.File, err error) error {
	if cerr := f.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.DiskBytes = s.size
	return st
}

// Close fsyncs and closes the log. The store rejects appends afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log == nil {
		return nil
	}
	f := s.log
	s.log = nil
	if err := f.Sync(); err != nil {
		return closeOnErr(f, err)
	}
	return f.Close()
}
