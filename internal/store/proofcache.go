// The proof-cache layer: a typed, content-addressed view over the raw
// record store for what the evaluation stack persists — per-theorem proof
// outcomes, so a warm re-sweep skips whole searches. Appends go through a
// write-behind channel drained by one background goroutine, so a search
// never waits for its own record's write. It can wait for the store's
// lock: a lookup or a record that arrives while a batch is written and
// fsynced waits until the batch is on disk.

package store

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// nsOutcome is the key-namespace tag (first byte of every outcome key).
const nsOutcome = 'O'

// CacheConfig configures OpenCache.
type CacheConfig struct {
	// Dir is the store directory.
	Dir string
	// CorpusHash is the 128-bit content hash of the corpus sources
	// (corpus.Hash). Every key embeds it, so a corpus edit is a full miss
	// by construction.
	CorpusHash [2]uint64
	// MirrorDen samples roughly one in MirrorDen warm hits for a live
	// recomputation cross-check (mirror-first discipline; 0 disables).
	MirrorDen int
}

// OutcomeKey identifies one persisted proof-search outcome: everything the
// result is a function of. The corpus hash is added by the Cache.
type OutcomeKey struct {
	// Env is the environment identity fingerprint (corpus hash + theorem
	// position + hint split).
	Env [2]uint64
	// Root is the strict hash of the initial proof state (eval's rootKey).
	// Its bytes must not change: the mirror sample is drawn from the key's
	// hash.
	Root [2]uint64
	// Profile fingerprints the model profile's calibration constants.
	Profile uint64
	// Setting, Variant, and Search name the prompt setting, the experiment
	// variant (std/reduced/whole:N), and the search algorithm.
	Setting, Variant, Search string
	// Width, Fuel, and Seed are the search hyperparameters.
	Width, Fuel int
	Seed        int64
}

// OutcomeRec is the persisted payload of one outcome: only what cannot be
// recomputed from the corpus. Derived metrics (token counts, similarity)
// are recomputed from the proof at reconstruction, so a record can never
// disagree with its own script.
type OutcomeRec struct {
	Status  uint8
	Queries int
	Proof   string
}

// Cache is the typed persistence layer. All methods are safe for
// concurrent use.
type Cache struct {
	st        *Store
	corpus    [2]uint64
	mirrorDen int

	pend   chan pendItem
	wg     sync.WaitGroup
	closed atomic.Bool

	outcomeHits      atomic.Int64
	outcomeMisses    atomic.Int64
	recorded         atomic.Int64
	dropped          atomic.Int64
	mirrorChecks     atomic.Int64
	mirrorMismatches atomic.Int64
	appendErr        atomic.Pointer[error]
}

// OpenCache opens (or creates) the persistent proof cache at cfg.Dir and
// starts the write-behind appender.
func OpenCache(cfg CacheConfig) (*Cache, error) {
	st, err := Open(cfg.Dir)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		st:        st,
		corpus:    cfg.CorpusHash,
		mirrorDen: cfg.MirrorDen,
		pend:      make(chan pendItem, 4096),
	}
	c.wg.Add(1)
	go c.appendLoop()
	return c, nil
}

// pendItem is one unit of work for the appender: a record, or (flush set)
// a request to commit everything received so far and signal completion.
type pendItem struct {
	rec   Rec
	flush chan struct{}
}

// appendLoop drains the write-behind channel in batches: one disk write +
// fsync per batch, never per record. A failed append disables further
// recording (the error is surfaced in Stats and by Close) — the cache
// keeps serving lookups but records nothing, rather than blocking or
// crashing the sweep.
func (c *Cache) appendLoop() {
	defer c.wg.Done()
	batch := make([]Rec, 0, 256)
	var flushes []chan struct{}
	commit := func() {
		if len(batch) > 0 && c.appendErr.Load() == nil {
			if err := c.st.AppendBatch(batch); err != nil {
				c.appendErr.Store(&err)
			}
		}
		batch = batch[:0]
		for _, f := range flushes {
			close(f)
		}
		flushes = flushes[:0]
	}
	add := func(it pendItem) {
		if it.flush != nil {
			flushes = append(flushes, it.flush)
		} else {
			batch = append(batch, it.rec)
		}
	}
	for it := range c.pend {
		add(it)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-c.pend:
				if !ok {
					break drain
				}
				add(more)
			default:
				break drain
			}
		}
		commit()
	}
	commit()
}

// Flush blocks until every record enqueued before the call has been handed
// to the store (or dropped). It must not race with Close.
func (c *Cache) Flush() {
	if c.closed.Load() {
		return
	}
	done := make(chan struct{})
	c.pend <- pendItem{flush: done}
	<-done
}

// enqueue hands one record to the appender without ever blocking: if the
// channel is full the record is dropped and counted — a lost cache entry
// costs a future recompute, never a stall.
func (c *Cache) enqueue(key, val []byte) {
	if c.closed.Load() || c.appendErr.Load() != nil {
		c.dropped.Add(1)
		return
	}
	if c.st.Holds(key, val) {
		return // already persisted with this value (idempotent backfill)
	}
	select {
	case c.pend <- pendItem{rec: Rec{Key: key, Val: val}}:
		c.recorded.Add(1)
	default:
		c.dropped.Add(1)
	}
}

// --- outcome records --------------------------------------------------------

// outcomeKeyBytes encodes k with the cache's corpus hash.
func (c *Cache) outcomeKeyBytes(k OutcomeKey) []byte {
	buf := make([]byte, 0, 96+len(k.Setting)+len(k.Variant)+len(k.Search))
	buf = append(buf, nsOutcome)
	buf = appendPair(buf, c.corpus)
	buf = appendPair(buf, k.Env)
	buf = appendPair(buf, k.Root)
	buf = binary.BigEndian.AppendUint64(buf, k.Profile)
	buf = binary.BigEndian.AppendUint32(buf, uint32(k.Width))
	buf = binary.BigEndian.AppendUint32(buf, uint32(k.Fuel))
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.Seed))
	buf = append(buf, k.Setting...)
	buf = append(buf, 0)
	buf = append(buf, k.Variant...)
	buf = append(buf, 0)
	buf = append(buf, k.Search...)
	return buf
}

func appendPair(buf []byte, p [2]uint64) []byte {
	buf = binary.BigEndian.AppendUint64(buf, p[0])
	return binary.BigEndian.AppendUint64(buf, p[1])
}

// LookupOutcome returns the persisted outcome for k. A record too short to
// decode, or whose status byte validStatus rejects, is a miss.
func (c *Cache) LookupOutcome(k OutcomeKey, validStatus func(uint8) bool) (OutcomeRec, bool) {
	val, ok := c.st.Get(c.outcomeKeyBytes(k))
	if !ok || len(val) < 5 || !validStatus(val[0]) {
		c.outcomeMisses.Add(1)
		return OutcomeRec{}, false
	}
	c.outcomeHits.Add(1)
	return OutcomeRec{
		Status:  val[0],
		Queries: int(binary.BigEndian.Uint32(val[1:])),
		Proof:   string(val[5:]),
	}, true
}

// RecordOutcome persists rec under k via the write-behind appender. A
// record that already holds rec is left alone; any other is replaced.
func (c *Cache) RecordOutcome(k OutcomeKey, rec OutcomeRec) {
	val := make([]byte, 0, 5+len(rec.Proof))
	val = append(val, rec.Status)
	val = binary.BigEndian.AppendUint32(val, uint32(rec.Queries))
	val = append(val, rec.Proof...)
	c.enqueue(c.outcomeKeyBytes(k), val)
}

// MirrorOutcome reports whether k falls in the deterministic mirror sample:
// roughly one key in MirrorDen, chosen by key hash so the same key is
// always (or never) cross-checked, independent of schedule.
func (c *Cache) MirrorOutcome(k OutcomeKey) bool {
	if c.mirrorDen <= 0 {
		return false
	}
	h := uint64(1469598103934665603)
	for _, b := range c.outcomeKeyBytes(k) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h%uint64(c.mirrorDen) == 0
}

// NoteMirror records one outcome-level mirror cross-check result.
func (c *Cache) NoteMirror(ok bool) {
	c.mirrorChecks.Add(1)
	if !ok {
		c.mirrorMismatches.Add(1)
	}
}

// --- stats / lifecycle ------------------------------------------------------

// CacheStats snapshots the typed layer's counters plus the underlying
// store's, for the structured cache-stats line.
type CacheStats struct {
	OutcomeHits      int64  `json:"outcome_hits"`
	OutcomeMisses    int64  `json:"outcome_misses"`
	Recorded         int64  `json:"recorded"`
	Dropped          int64  `json:"dropped"`
	MirrorChecks     int64  `json:"mirror_checks"`
	MirrorMismatches int64  `json:"mirror_mismatches"`
	AppendError      string `json:"append_error,omitempty"`
	Store            Stats  `json:"store"`
}

// Stats returns a snapshot of the cache and store counters.
func (c *Cache) Stats() CacheStats {
	cs := CacheStats{
		OutcomeHits:      c.outcomeHits.Load(),
		OutcomeMisses:    c.outcomeMisses.Load(),
		Recorded:         c.recorded.Load(),
		Dropped:          c.dropped.Load(),
		MirrorChecks:     c.mirrorChecks.Load(),
		MirrorMismatches: c.mirrorMismatches.Load(),
		Store:            c.st.Stats(),
	}
	if p := c.appendErr.Load(); p != nil {
		cs.AppendError = (*p).Error()
	}
	return cs
}

// Mismatches returns the outcome-level mirror mismatch count.
func (c *Cache) Mismatches() int64 { return c.mirrorMismatches.Load() }

// Close drains the write-behind queue, fsyncs, and closes the store. It
// returns the first append error if recording failed mid-run.
func (c *Cache) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.pend)
	c.wg.Wait()
	var err error
	if p := c.appendErr.Load(); p != nil {
		err = *p
	}
	if cerr := c.st.Close(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	return err
}
