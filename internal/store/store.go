// Package store implements the on-disk half of the proof-outcome cache: an
// append-only, crash-safe, content-addressed record store. Every goal/state
// identity is a pure 128-bit structural key and a search outcome is a pure
// function of those keys plus the environment, so outcomes can be persisted
// and reused across processes: repeated sweeps and CI invocations
// warm-start instead of recomputing.
//
// The layout is a Bitcask-style log: numbered segment files of
// length-prefixed, checksummed records, with the full live key set held in
// an in-memory index. Writers only ever append; compaction rewrites the
// live set into a fresh segment and deletes the old ones. Every record
// carries a timestamp for TTL retention, and every segment carries a
// generation header so a format bump cleanly cold-starts instead of
// misparsing old bytes.
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
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Generation is the on-disk format version. Segments written by a different
// generation are discarded at open (a cold start), never misparsed.
const Generation = 1

// magic identifies a segment file of this store.
const magic = "LFSQPRF\n"

const (
	headerSize = len(magic) + 8 // magic + generation(4) + segment index(4)
	recHeader  = 8              // length(4) + crc(4)
)

// castagnoli is the CRC-32C table (the checksum used by modern log formats;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if absent, unless ReadOnly).
	Dir string
	// ReadOnly opens the store without an active segment: lookups work,
	// appends fail, and no repair (truncation, compaction, foreign-segment
	// deletion) touches the disk.
	ReadOnly bool
	// SegmentBytes rotates the active segment when it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// MaxBytes bounds the live set: compaction evicts oldest-first until
	// under (default 256 MiB; <0 disables).
	MaxBytes int64
	// TTL expires records older than this at open and compaction
	// (default 30 days; <0 disables).
	TTL time.Duration
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.TTL == 0 {
		o.TTL = 30 * 24 * time.Hour
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Rec is one key/value record for AppendBatch.
type Rec struct {
	Key []byte
	Val []byte
}

type entry struct {
	val []byte
	ts  int64 // unix seconds at append time
}

// Stats is a point-in-time snapshot of the store's counters, for the
// cache-stats line and the bench harness.
type Stats struct {
	Entries   int   `json:"entries"`
	Segments  int   `json:"segments"`
	DiskBytes int64 `json:"disk_bytes"`
	// Gets/Hits count index lookups; Appends counts records written this
	// process (after batch dedup).
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Appends int64 `json:"appends"`
	// TornDropped counts tail records truncated at open (crash mid-append);
	// CorruptDropped counts mid-segment records abandoned on a checksum
	// mismatch; Expired counts records dropped by TTL; Evicted counts
	// records dropped by the MaxBytes bound.
	TornDropped    int64 `json:"torn_dropped"`
	CorruptDropped int64 `json:"corrupt_dropped"`
	Expired        int64 `json:"expired"`
	Evicted        int64 `json:"evicted"`
	Compactions    int64 `json:"compactions"`
	// GenerationSkips counts whole segments discarded for a foreign
	// generation header (format bump = cold start).
	GenerationSkips int64 `json:"generation_skips"`
	// OldestAgeSeconds is the age of the oldest live record.
	OldestAgeSeconds int64 `json:"oldest_age_seconds"`
}

// Store is the on-disk record store. All methods are safe for concurrent
// use; writes are serialized internally. One process per directory: the
// store does no cross-process locking.
type Store struct {
	opts Options

	mu         sync.Mutex
	index      map[string]entry
	active     *os.File
	activeSeg  int
	activeSize int64
	diskBytes  int64 // total bytes across all segment files
	liveBytes  int64 // bytes the live set would occupy if rewritten
	segments   []int // existing segment indexes, ascending
	stats      Stats
	closed     bool
}

// Open loads every valid record from dir's segments into memory, repairs a
// torn tail (read-write mode only), applies TTL/size retention, and
// prepares an active segment for appends.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, index: make(map[string]entry)}
	if opts.ReadOnly {
		if _, err := os.Stat(opts.Dir); err != nil {
			if os.IsNotExist(err) {
				return s, nil // empty read-only store: all lookups miss
			}
			return nil, err
		}
	} else if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		if err := s.scanSegment(seg); err != nil {
			return nil, err
		}
	}
	if !opts.ReadOnly {
		s.applyRetention()
		// Compact when more than half the on-disk bytes are dead, so the log
		// cannot grow without bound under churn.
		if s.diskBytes > s.opts.SegmentBytes && s.diskBytes > 2*s.liveBytes {
			if err := s.compactLocked(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// segName renders the segment file name for index i.
func segName(i int) string { return fmt.Sprintf("seg-%08d.log", i) }

// segHeader renders the header of segment seg: magic, generation, index.
func segHeader(seg int) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[len(magic):], Generation)
	binary.BigEndian.PutUint32(hdr[len(magic)+4:], uint32(seg))
	return hdr
}

// listSegments returns the existing segment indexes in ascending order.
func (s *Store) listSegments() ([]int, error) {
	des, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, de := range des {
		var i int
		// A parse failure just means "not a segment file" (stray tmp file,
		// editor droppings): skip it, don't fail the open.
		if n, err := fmt.Sscanf(de.Name(), "seg-%d.log", &i); err == nil && n == 1 && !strings.HasSuffix(de.Name(), ".tmp") {
			segs = append(segs, i)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// scanSegment loads one segment's records. The last segment may legally end
// in a torn record (crash mid-append): it is truncated away in read-write
// mode, skipped in read-only mode. A checksum failure anywhere abandons the
// rest of the segment — later records have no trustworthy frame to resync
// on — but earlier records and later segments are unaffected.
func (s *Store) scanSegment(seg int) error {
	path := filepath.Join(s.opts.Dir, segName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	drop := func(reason string) error {
		if s.opts.ReadOnly {
			s.stats.GenerationSkips++
			return nil
		}
		s.stats.GenerationSkips++
		_ = reason
		return os.Remove(path)
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic ||
		binary.BigEndian.Uint32(data[len(magic):len(magic)+4]) != Generation {
		// Foreign or truncated-below-header segment: cold-start it away.
		return drop("foreign generation")
	}
	off := headerSize
	good := off // offset just past the last fully-valid record
	for off < len(data) {
		if len(data)-off < recHeader {
			s.stats.TornDropped++
			break
		}
		length := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if length < 8 || len(data)-off-recHeader < length {
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
		ts := int64(binary.BigEndian.Uint32(payload))
		klen := int(binary.BigEndian.Uint32(payload[4:]))
		if klen < 0 || 8+klen > length {
			s.stats.CorruptDropped++
			break
		}
		key := string(payload[8 : 8+klen])
		val := append([]byte(nil), payload[8+klen:]...)
		s.insert(key, entry{val: val, ts: ts})
		off += recHeader + length
		good = off
	}
	s.diskBytes += int64(len(data))
	s.segments = append(s.segments, seg)
	if good < len(data) && !s.opts.ReadOnly {
		// Truncate the torn/corrupt tail so the next append starts on a
		// clean frame. The lost suffix is re-appended by whoever recomputes
		// it (the backfill property the eval tests pin).
		if err := os.Truncate(path, int64(good)); err != nil {
			return err
		}
		s.diskBytes -= int64(len(data) - good)
	}
	return nil
}

// insert replaces the index entry for key, maintaining liveBytes.
func (s *Store) insert(key string, e entry) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= recSize(key, old.val)
	}
	s.index[key] = e
	s.liveBytes += recSize(key, e.val)
}

func recSize(key string, val []byte) int64 {
	return int64(recHeader + 8 + len(key) + len(val))
}

// applyRetention drops expired entries and, when the live set exceeds
// MaxBytes, evicts oldest-first until under. Disk space is reclaimed by the
// next compaction; the entries stop being served immediately.
func (s *Store) applyRetention() {
	now := s.opts.Now().Unix()
	var victims []string
	for k, e := range s.index {
		if s.opts.TTL > 0 && now-e.ts > int64(s.opts.TTL/time.Second) {
			victims = append(victims, k)
		}
	}
	sort.Strings(victims)
	for _, k := range victims {
		s.liveBytes -= recSize(k, s.index[k].val)
		delete(s.index, k)
		s.stats.Expired++
	}
	if s.opts.MaxBytes <= 0 || s.liveBytes <= s.opts.MaxBytes {
		return
	}
	keys := s.sortedKeysByAge()
	for _, k := range keys {
		if s.liveBytes <= s.opts.MaxBytes {
			break
		}
		s.liveBytes -= recSize(k, s.index[k].val)
		delete(s.index, k)
		s.stats.Evicted++
	}
}

// sortedKeysByAge returns the live keys oldest-first (ties broken by key,
// so retention is deterministic for a given content set).
func (s *Store) sortedKeysByAge() []string {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ti, tj := s.index[keys[i]].ts, s.index[keys[j]].ts
		if ti != tj {
			return ti < tj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Get returns the stored value for key. The returned slice is the index's
// backing array: callers must not mutate it.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	e, ok := s.index[string(key)]
	if !ok {
		return nil, false
	}
	if s.opts.TTL > 0 && s.opts.Now().Unix()-e.ts > int64(s.opts.TTL/time.Second) {
		return nil, false
	}
	s.stats.Hits++
	return e.val, true
}

// Holds reports whether key's live record holds exactly val, without
// counting a lookup.
func (s *Store) Holds(key, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[string(key)]
	return ok && string(e.val) == string(val)
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Range calls f for every live record. Iteration order is unspecified;
// callers that need determinism must collect and sort.
func (s *Store) Range(f func(key string, val []byte, ts int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.index {
		f(k, e.val, e.ts)
	}
}

// Put appends one record (AppendBatch of one).
func (s *Store) Put(key, val []byte) error {
	return s.AppendBatch([]Rec{{Key: key, Val: val}})
}

// AppendBatch appends records in one write + one fsync, updating the index.
// Records whose key already holds a byte-identical value are skipped, so
// re-recording a warm run's results (the backfill sweep) is idempotent on
// disk. Returns an error in read-only mode.
func (s *Store) AppendBatch(recs []Rec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return errors.New("store: append to read-only store")
	}
	if s.closed {
		return errors.New("store: append to closed store")
	}
	now := s.opts.Now().Unix()
	var buf []byte
	type pending struct {
		key string
		val []byte
	}
	var applied []pending
	for _, r := range recs {
		if old, ok := s.index[string(r.Key)]; ok && string(old.val) == string(r.Val) {
			continue
		}
		buf = appendRecord(buf, now, r.Key, r.Val)
		applied = append(applied, pending{key: string(r.Key), val: append([]byte(nil), r.Val...)})
	}
	if len(buf) == 0 {
		return nil
	}
	if err := s.ensureActive(int64(len(buf))); err != nil {
		return err
	}
	if _, err := s.active.Write(buf); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.activeSize += int64(len(buf))
	s.diskBytes += int64(len(buf))
	for _, p := range applied {
		s.insert(p.key, entry{val: p.val, ts: now})
		s.stats.Appends++
	}
	return nil
}

// appendRecord encodes one record frame onto buf.
func appendRecord(buf []byte, ts int64, key, val []byte) []byte {
	length := 8 + len(key) + len(val)
	var hdr [recHeader + 8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(length))
	binary.BigEndian.PutUint32(hdr[8:], uint32(ts))
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(key)))
	crc := crc32.Checksum(hdr[8:], castagnoli)
	crc = crc32.Update(crc, castagnoli, key)
	crc = crc32.Update(crc, castagnoli, val)
	binary.BigEndian.PutUint32(hdr[4:], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// ensureActive opens (or rotates to) a segment with room for n more bytes.
func (s *Store) ensureActive(n int64) error {
	if s.active != nil && s.activeSize+n > s.opts.SegmentBytes && s.activeSize > int64(headerSize) {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	if s.active != nil {
		return nil
	}
	seg := 1
	if len(s.segments) > 0 {
		seg = s.segments[len(s.segments)-1] + 1
	}
	path := filepath.Join(s.opts.Dir, segName(seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := segHeader(seg)
	if _, err := f.Write(hdr[:]); err != nil {
		return closeOnErr(f, err)
	}
	if err := f.Sync(); err != nil {
		return closeOnErr(f, err)
	}
	s.active = f
	s.activeSeg = seg
	s.activeSize = int64(headerSize)
	s.diskBytes += int64(headerSize)
	s.segments = append(s.segments, seg)
	return nil
}

// closeOnErr closes f after a failed write, preserving the original error.
func closeOnErr(f *os.File, err error) error {
	if cerr := f.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// Compact rewrites the live set into a fresh segment and deletes the old
// ones. Crash-safe: the new segment is written under a temporary name and
// renamed into place before any old segment is removed, and its index is
// higher than every old segment's, so a crash between rename and removal
// leaves duplicates that last-writer-wins scanning resolves.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.opts.ReadOnly {
		return errors.New("store: compact read-only store")
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	seg := 1
	if len(s.segments) > 0 {
		seg = s.segments[len(s.segments)-1] + 1
	}
	path := filepath.Join(s.opts.Dir, segName(seg))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := segHeader(seg)
	if _, err := f.Write(hdr[:]); err != nil {
		return closeOnErr(f, err)
	}
	// Deterministic record order (sorted keys): the same live set always
	// compacts to byte-identical segments.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	written := int64(headerSize)
	var buf []byte
	for _, k := range keys {
		e := s.index[k]
		buf = appendRecord(buf[:0], e.ts, []byte(k), e.val)
		if _, err := f.Write(buf); err != nil {
			return closeOnErr(f, err)
		}
		written += int64(len(buf))
	}
	if err := f.Sync(); err != nil {
		return closeOnErr(f, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	old := s.segments
	for _, i := range old {
		if err := os.Remove(filepath.Join(s.opts.Dir, segName(i))); err != nil {
			return err
		}
	}
	s.segments = []int{seg}
	s.diskBytes = written
	s.activeSize = 0
	s.stats.Compactions++
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return closeOnErr(d, err)
	}
	return d.Close()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = len(s.segments)
	st.DiskBytes = s.diskBytes
	now := s.opts.Now().Unix()
	oldest := int64(0)
	for _, e := range s.index {
		if age := now - e.ts; age > oldest {
			oldest = age
		}
	}
	st.OldestAgeSeconds = oldest
	return st
}

// Close fsyncs and closes the active segment. The store rejects appends
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	f := s.active
	s.active = nil
	if err := f.Sync(); err != nil {
		return closeOnErr(f, err)
	}
	return f.Close()
}
