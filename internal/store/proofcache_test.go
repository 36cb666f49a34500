package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func openCacheT(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := OpenCache(cfg)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	return c
}

func closeCacheT(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatalf("Cache.Close: %v", err)
	}
}

var testCorpus = [2]uint64{0x1111, 0x2222}

// anyStatus accepts every status byte, so lookups hit on any decodable
// record.
func anyStatus(uint8) bool { return true }

func testOutcomeKey() OutcomeKey {
	return OutcomeKey{
		Env:     [2]uint64{3, 4},
		Root:    [2]uint64{5, 6},
		Profile: 7,
		Setting: "with-hints",
		Variant: "std",
		Search:  "best-first",
		Width:   4,
		Fuel:    128,
		Seed:    99,
	}
}

func TestOutcomeRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	k := testOutcomeKey()
	if _, ok := c.LookupOutcome(k, anyStatus); ok {
		t.Fatal("lookup hit on empty cache")
	}
	rec := OutcomeRec{Status: 2, Queries: 17, Proof: "intros.\nauto."}
	c.RecordOutcome(k, rec)
	closeCacheT(t, c) // drains the write-behind queue

	c2 := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	defer closeCacheT(t, c2)
	got, ok := c2.LookupOutcome(k, anyStatus)
	if !ok {
		t.Fatal("recorded outcome missing after reopen")
	}
	if got != rec {
		t.Fatalf("outcome = %+v; want %+v", got, rec)
	}
	st := c2.Stats()
	if st.OutcomeHits != 1 || st.OutcomeMisses != 0 {
		t.Fatalf("hits/misses = %d/%d; want 1/0", st.OutcomeHits, st.OutcomeMisses)
	}
}

// A record whose status byte the caller rejects is a counted miss.
// Re-recording the value a key already holds is a no-op (the warm-run
// backfill), but a different value replaces the persisted one, so a
// rejected record is repaired by the live outcome recorded in its place.
func TestRecordOutcomeReplacesOnlyDifferentValues(t *testing.T) {
	dir := t.TempDir()
	c := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	k := testOutcomeKey()
	validStatus := func(s uint8) bool { return s <= 2 }
	bad := OutcomeRec{Status: 7, Queries: 3}
	good := OutcomeRec{Status: 1, Queries: 3}
	c.RecordOutcome(k, bad)
	c.Flush()
	c.RecordOutcome(k, bad)
	c.Flush()
	if got := c.Stats().Recorded; got != 1 {
		t.Fatalf("identical re-record: Recorded = %d; want 1", got)
	}
	if got, ok := c.LookupOutcome(k, validStatus); ok {
		t.Fatalf("rejected status served: %+v", got)
	}
	if st := c.Stats(); st.OutcomeHits != 0 || st.OutcomeMisses != 1 {
		t.Fatalf("rejected record: hits/misses = %d/%d; want 0/1", st.OutcomeHits, st.OutcomeMisses)
	}
	c.RecordOutcome(k, good)
	closeCacheT(t, c)

	c2 := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	defer closeCacheT(t, c2)
	if got, ok := c2.LookupOutcome(k, validStatus); !ok || got != good {
		t.Fatalf("outcome = %+v,%v; want %+v", got, ok, good)
	}
}

func TestOutcomeKeyComponentsDiscriminate(t *testing.T) {
	dir := t.TempDir()
	c := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	defer closeCacheT(t, c)
	base := testOutcomeKey()
	c.RecordOutcome(base, OutcomeRec{Status: 1})
	c.Flush()

	// Every field of the key must discriminate: a change in any one is a
	// miss, which is what makes invalidation by construction work.
	variants := map[string]OutcomeKey{}
	k := base
	k.Env = [2]uint64{30, 40}
	variants["env"] = k
	k = base
	k.Root = [2]uint64{50, 60}
	variants["root"] = k
	k = base
	k.Profile = 70
	variants["profile"] = k
	k = base
	k.Setting = "sketch"
	variants["setting"] = k
	k = base
	k.Variant = "reduced"
	variants["variant"] = k
	k = base
	k.Search = "linear"
	variants["search"] = k
	k = base
	k.Width = 5
	variants["width"] = k
	k = base
	k.Fuel = 129
	variants["fuel"] = k
	k = base
	k.Seed = 100
	variants["seed"] = k
	for name, v := range variants {
		if _, ok := c.LookupOutcome(v, anyStatus); ok {
			t.Errorf("changed %s but lookup still hit", name)
		}
	}
	// Delimited strings must not be confusable across field boundaries.
	k = base
	k.Setting, k.Variant = base.Setting+"x", base.Variant
	c.RecordOutcome(k, OutcomeRec{Status: 3})
	c.Flush()
	if got, ok := c.LookupOutcome(base, anyStatus); !ok || got.Status != 1 {
		t.Fatalf("base key perturbed by neighbour record: %+v %v", got, ok)
	}
}

func TestCorpusHashIsolatesCaches(t *testing.T) {
	dir := t.TempDir()
	c := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	k := testOutcomeKey()
	c.RecordOutcome(k, OutcomeRec{Status: 2, Proof: "auto."})
	closeCacheT(t, c)

	// Same directory, different corpus hash (one flipped bit): every outcome
	// lookup is a miss.
	other := [2]uint64{testCorpus[0] ^ 1, testCorpus[1]}
	c2 := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: other})
	defer closeCacheT(t, c2)
	if _, ok := c2.LookupOutcome(k, anyStatus); ok {
		t.Fatal("outcome hit across corpus hash change")
	}
}

// TestOpensStoreWithTryRecords: a directory written by generation 1 (a
// numbered segment whose header carries a segment index and whose records
// carry a timestamp, holding an outcome record and the Try verdicts of
// older versions, plus a temporary file of an interrupted compaction)
// opens without error and cold-starts: nothing is served, its files are
// removed, and the next recording starts the directory's one log.
func TestOpensStoreWithTryRecords(t *testing.T) {
	dir := t.TempDir()
	k := testOutcomeKey()
	rec := OutcomeRec{Status: 0, Queries: 3, Proof: "intros. auto."}
	c := &Cache{corpus: testCorpus}
	val := binary.BigEndian.AppendUint32([]byte{rec.Status}, uint32(rec.Queries))
	val = append(val, rec.Proof...)
	seg := []byte(magic)
	seg = binary.BigEndian.AppendUint32(seg, 1) // generation
	seg = binary.BigEndian.AppendUint32(seg, 1) // segment index
	seg = append(seg, genOneRecord(1_700_000_000, string(c.outcomeKeyBytes(k)), string(val))...)
	for i, sentence := range []string{"ring.", "lia.", "destruct H."} {
		key := []byte{'T'}
		for _, w := range []uint64{testCorpus[0], testCorpus[1], 3, 4, uint64(i), 9} {
			key = binary.BigEndian.AppendUint64(key, w)
		}
		key = append(key, sentence...)
		seg = append(seg, genOneRecord(1_700_000_000, string(key), "\x01rejected")...)
	}
	for _, name := range []string{"seg-00000001.log", "seg-00000002.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c1, err := OpenCache(CacheConfig{Dir: dir, CorpusHash: testCorpus})
	if err != nil {
		t.Fatalf("OpenCache over a generation-1 store: %v", err)
	}
	if got, ok := c1.LookupOutcome(k, anyStatus); ok {
		t.Fatalf("generation-1 outcome served: %+v", got)
	}
	if st := c1.Stats().Store; st.GenerationSkips != 2 || st.Entries != 0 || st.DiskBytes != 0 {
		t.Fatalf("store after cold start: %+v; want 2 generation skips, empty", st)
	}
	c1.RecordOutcome(k, rec)
	closeCacheT(t, c1)
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != logName {
		t.Fatalf("directory holds %v after the cold start; want only %s", des, logName)
	}

	c2 := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus})
	defer closeCacheT(t, c2)
	if got, ok := c2.LookupOutcome(k, anyStatus); !ok || got != rec {
		t.Fatalf("outcome = %+v, %v; want %+v, true", got, ok, rec)
	}
}

func TestMirrorOutcomeDeterministicSampling(t *testing.T) {
	dir := t.TempDir()
	c := openCacheT(t, CacheConfig{Dir: dir, CorpusHash: testCorpus, MirrorDen: 4})
	defer closeCacheT(t, c)
	k := testOutcomeKey()
	first := c.MirrorOutcome(k)
	for i := 0; i < 10; i++ {
		if c.MirrorOutcome(k) != first {
			t.Fatal("MirrorOutcome not deterministic for a fixed key")
		}
	}
	// Across many distinct keys the sample must be non-trivial: some picked,
	// some not (a degenerate all/none sample would make mirroring useless or
	// as expensive as a cold run).
	picked := 0
	for i := 0; i < 256; i++ {
		k.Seed = int64(i)
		if c.MirrorOutcome(k) {
			picked++
		}
	}
	if picked == 0 || picked == 256 {
		t.Fatalf("mirror sample degenerate: %d/256", picked)
	}

	off := openCacheT(t, CacheConfig{Dir: t.TempDir(), CorpusHash: testCorpus})
	defer closeCacheT(t, off)
	if off.MirrorOutcome(k) {
		t.Fatal("MirrorOutcome true with mirroring disabled")
	}
	all := openCacheT(t, CacheConfig{Dir: t.TempDir(), CorpusHash: testCorpus, MirrorDen: 1})
	defer closeCacheT(t, all)
	if !all.MirrorOutcome(k) {
		t.Fatal("MirrorOutcome false with MirrorDen=1")
	}
}

func TestNoteMirrorCounters(t *testing.T) {
	c := openCacheT(t, CacheConfig{Dir: t.TempDir(), CorpusHash: testCorpus, MirrorDen: 2})
	defer closeCacheT(t, c)
	c.NoteMirror(true)
	c.NoteMirror(true)
	c.NoteMirror(false)
	st := c.Stats()
	if st.MirrorChecks != 3 || st.MirrorMismatches != 1 {
		t.Fatalf("mirror counters = %d/%d; want 3/1", st.MirrorChecks, st.MirrorMismatches)
	}
	if c.Mismatches() != 1 {
		t.Fatalf("Mismatches = %d; want 1", c.Mismatches())
	}
}
