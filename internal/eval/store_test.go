package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
)

// storeRunner builds a Runner wired to a persistent proof cache over the
// default corpus. The caller owns the cache lifecycle.
func storeRunner(t *testing.T, dir string, hash [2]uint64, mirrorDen int) (*Runner, *store.Cache) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := store.OpenCache(store.CacheConfig{Dir: dir, CorpusHash: hash, MirrorDen: mirrorDen})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c, 2025)
	r.Parallelism = 4
	r.ProofStore = pc
	return r, pc
}

func corpusHash(t *testing.T) [2]uint64 {
	t.Helper()
	files, err := corpus.Sources()
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Hash(files)
}

// sweepSlice runs a small deterministic sweep and returns its outcomes
// sorted by theorem name.
func sweepSlice(t *testing.T, r *Runner) []Outcome {
	t.Helper()
	ths := r.TestSet()
	if len(ths) > 8 {
		ths = ths[:8]
	}
	outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Theorem < outs[j].Theorem })
	return outs
}

func finishRun(t *testing.T, r *Runner, pc *store.Cache) store.CacheStats {
	t.Helper()
	r.FlushProofStore()
	st := pc.Stats()
	if n := r.ProofStoreMismatches(); n != 0 {
		t.Fatalf("%d mirror mismatches on a clean run", n)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// The headline warm-start property: a warm re-sweep over the same corpus,
// seed, and settings must produce exactly the outcomes the cold sweep did,
// while answering from the store instead of searching.
func TestWarmSweepMatchesCold(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	st1 := finishRun(t, r1, pc1)
	if st1.OutcomeHits != 0 {
		t.Fatalf("cold run reported %d outcome hits", st1.OutcomeHits)
	}
	if st1.Recorded == 0 {
		t.Fatal("cold run persisted nothing")
	}
	// Only outcomes are persisted: a recording sweep appends exactly one
	// record per searched unit.
	if st1.Recorded != st1.OutcomeMisses || st1.Dropped != 0 {
		t.Fatalf("cold run recorded %d records (%d dropped) for %d outcome misses",
			st1.Recorded, st1.Dropped, st1.OutcomeMisses)
	}

	r2, pc2 := storeRunner(t, dir, hash, 16)
	warm := sweepSlice(t, r2)
	st2 := finishRun(t, r2, pc2)
	if st2.OutcomeHits == 0 {
		t.Fatal("warm run had zero outcome hits")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm sweep diverged from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// Flipping one byte of a corpus source changes the content hash that
// prefixes every store key, so a warm open over the edited corpus is a
// full miss — invalidation by construction, no epochs to bump.
func TestCorpusByteFlipIsFullMiss(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	flipped := hash
	flipped[0] ^= 1 // what corpus.Hash returns after any one-byte source edit
	r2, pc2 := storeRunner(t, dir, flipped, 16)
	miss := sweepSlice(t, r2)
	st := finishRun(t, r2, pc2)
	if st.OutcomeHits != 0 {
		t.Fatalf("edited corpus still hit %d outcomes", st.OutcomeHits)
	}
	if !reflect.DeepEqual(cold, miss) {
		t.Fatal("full-miss sweep should recompute the same outcomes live")
	}
}

// Crash-safety end to end: truncating the tail record of the log (a torn
// mid-write) must not poison the store — it reopens, drops the torn
// record, the next sweep backfills it, and every table stays
// byte-identical to the cold run.
func TestTornTailBackfillsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store directory holds %v (%v); want one log", files, err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r2, pc2 := storeRunner(t, dir, hash, 16)
	warm := sweepSlice(t, r2)
	st := finishRun(t, r2, pc2)
	if st.Store.TornDropped == 0 {
		t.Fatal("truncated tail record not detected")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("post-truncation sweep diverged from cold run")
	}

	// The re-sweep recomputed and re-recorded the torn entry; a third run
	// is fully warm again.
	r3, pc3 := storeRunner(t, dir, hash, 16)
	again := sweepSlice(t, r3)
	st3 := finishRun(t, r3, pc3)
	if st3.OutcomeMisses != 0 {
		t.Fatalf("backfill incomplete: %d outcome misses after re-sweep", st3.OutcomeMisses)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("backfilled sweep diverged from cold run")
	}
}

// The mirror sample is the integrity net: tamper with a persisted outcome
// on disk and a MirrorDen=1 warm run must (a) catch the disagreement,
// (b) still return the live result, not the corrupt one, and (c) leave the
// record as it is, so the next run catches it again.
func TestMirrorCatchesTamperedRecord(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 1)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	// Bump the query count of every outcome record ('O' namespace) in
	// place via the raw store: status(1) | queries(u32) | proof.
	raw, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type kv struct {
		key string
		val []byte
	}
	var tampered []kv
	raw.Range(func(key string, val []byte) {
		if len(key) == 0 || key[0] != 'O' || len(val) < 5 {
			return
		}
		v := append([]byte(nil), val...)
		v[4]++
		tampered = append(tampered, kv{key, v})
	})
	if len(tampered) == 0 {
		t.Fatal("no outcome records to tamper with")
	}
	for _, e := range tampered {
		if err := raw.Put([]byte(e.key), e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	for run := 1; run <= 2; run++ {
		r2, pc2 := storeRunner(t, dir, hash, 1)
		warm := sweepSlice(t, r2)
		r2.FlushProofStore()
		if n := r2.ProofStoreMismatches(); n != int64(len(tampered)) {
			t.Fatalf("warm run %d: %d mirror mismatches over %d tampered records", run, n, len(tampered))
		}
		if n := pc2.Stats().Recorded; n != 0 {
			t.Fatalf("warm run %d rewrote %d mirrored records", run, n)
		}
		if err := pc2.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("warm run %d: mirrored run must return live results, not tampered ones", run)
		}
	}
}

// A CRC-valid outcome record whose status byte is not a core.Status must
// not be served: the tables count an outcome by its status, so a served
// one would vanish from every rate. With the mirror sample off nothing
// else would catch it, so each such unit must be searched live, and the
// live outcome recorded over the bad record.
func TestOutOfRangeStatusIsNotServed(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 0)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	// Set the status byte of every outcome record ('O' namespace) out of
	// range via the raw store: status(1) | queries(u32) | proof.
	raw, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type kv struct {
		key string
		val []byte
	}
	var bad []kv
	raw.Range(func(key string, val []byte) {
		if len(key) == 0 || key[0] != 'O' || len(val) < 5 {
			return
		}
		v := append([]byte(nil), val...)
		v[0] = 7
		bad = append(bad, kv{key, v})
	})
	if len(bad) == 0 {
		t.Fatal("no outcome records to corrupt")
	}
	for _, e := range bad {
		if err := raw.Put([]byte(e.key), e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	r2, pc2 := storeRunner(t, dir, hash, 0)
	warm := sweepSlice(t, r2)
	st2 := finishRun(t, r2, pc2)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("out-of-range statuses were served:\ncold %+v\nwarm %+v", cold, warm)
	}
	// A rejected record is a miss, not a hit that was searched anyway.
	if st2.OutcomeHits != 0 || st2.OutcomeMisses != int64(len(bad)) {
		t.Fatalf("hits/misses = %d/%d over %d bad records; want 0/%d",
			st2.OutcomeHits, st2.OutcomeMisses, len(bad), len(bad))
	}
	if st2.Recorded != int64(len(bad)) {
		t.Fatalf("re-recorded %d outcomes over %d bad records", st2.Recorded, len(bad))
	}

	// The re-recorded outcomes are valid: a third run is fully warm, records
	// nothing, and still matches.
	r3, pc3 := storeRunner(t, dir, hash, 0)
	again := sweepSlice(t, r3)
	st3 := finishRun(t, r3, pc3)
	if st3.OutcomeHits != int64(len(bad)) || st3.OutcomeMisses != 0 || st3.Recorded != 0 {
		t.Fatalf("third run: %d hits, %d misses, %d recorded", st3.OutcomeHits, st3.OutcomeMisses, st3.Recorded)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("run over the repaired records diverged from cold")
	}
}

// tierStats reads the in-memory outcome tier's counters.
func tierStats(r *Runner) (exact, derived, misses int64) {
	return r.outcomes.exact.Load(), r.outcomes.derived.Load(), r.outcomes.misses.Load()
}

// The ablations' query-limit sweep, on a slice: the fuel-32/64/128/256
// outcomes that copies of one Runner get from its outcome tier must equal
// those fresh Runners search live.
func TestOutcomeTierMatchesLiveSearch(t *testing.T) {
	r, _ := runner(t)
	ths := r.TestSet()[:24]
	n := int64(len(ths))
	grid := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	fuelout := int64(0)
	for _, o := range grid {
		if o.Status == core.Fuelout {
			fuelout++
		}
	}
	if fuelout == 0 || fuelout == n {
		t.Fatalf("%d of %d grid units ran out of fuel; the slice needs both kinds", fuelout, n)
	}

	for _, fuel := range []int{32, 64, 128, 256} {
		rr := *r
		rr.QueryLimit = fuel
		served := rr.RunSweep(model.GPT4o, prompt.Hint, ths)

		fresh, _ := runner(t)
		fresh.QueryLimit = fuel
		live := fresh.RunSweep(model.GPT4o, prompt.Hint, ths)
		if !reflect.DeepEqual(served, live) {
			t.Fatalf("fuel %d: tier outcomes differ from live searches:\ntier %+v\nlive %+v", fuel, served, live)
		}
		if exact, derived, misses := tierStats(fresh); exact+derived != 0 || misses != n {
			t.Fatalf("fuel %d: a fresh Runner's tier answered %d exact, %d derived, missed %d", fuel, exact, derived, misses)
		}
	}
	// Fuel 128 repeats the grid exactly; 32 and 64 derive from it; 256
	// derives the units that did not run out of fuel at 128 and searches
	// the rest, whose entries it replaces.
	exact, derived, misses := tierStats(r)
	if exact != n || derived != 3*n-fuelout || misses != n+fuelout {
		t.Fatalf("tier answered %d exact, %d derived, missed %d; want %d, %d, %d",
			exact, derived, misses, n, 3*n-fuelout, n+fuelout)
	}
	var line struct {
		Outcomes outcomeStatsJSON `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(r.CacheStatsJSON()), &line); err != nil {
		t.Fatal(err)
	}
	if want := (outcomeStatsJSON{Exact: exact, Derived: derived, Misses: misses}); line.Outcomes != want {
		t.Fatalf("storeless cache-stats line reports %+v, want %+v", line.Outcomes, want)
	}
}

// A unit the outcome tier answers never reaches the store: a repeated
// sweep and a shorter-budget copy on one Runner neither look up nor record
// anything there.
func TestTierAnsweredUnitsSkipStore(t *testing.T) {
	r, pc := storeRunner(t, t.TempDir(), corpusHash(t), 1)
	first := sweepSlice(t, r)
	r.FlushProofStore()
	before := pc.Stats()

	again := sweepSlice(t, r)
	rr := *r
	rr.QueryLimit = 32
	sweepSlice(t, &rr)
	r.FlushProofStore()
	after := pc.Stats()
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("tier-answered sweep differs from the searched one")
	}
	if after.OutcomeHits != before.OutcomeHits || after.OutcomeMisses != before.OutcomeMisses ||
		after.Recorded != before.Recorded || after.MirrorChecks != before.MirrorChecks {
		t.Fatalf("tier-answered units reached the store: before %+v, after %+v", before, after)
	}
	if exact, derived, _ := tierStats(r); exact != 8 || derived != 8 {
		t.Fatalf("tier answered %d exact and %d derived units, want 8 and 8", exact, derived)
	}
}

// A zero Width and QueryLimit search at core's defaults, 8 and 128, so a
// Runner copy with both at 0 is the same unit as one at 8/128 and is
// answered exactly from its tier entries. Keyed as a limit of 0, each unit
// would come back as a Fuelout after 0 queries.
func TestZeroBudgetKeysAsDefault(t *testing.T) {
	r, _ := runner(t)
	ths := r.TestSet()[:8]
	want := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	zero := *r
	zero.Width, zero.QueryLimit = 0, 0
	got := zero.RunSweep(model.GPT4o, prompt.Hint, ths)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero budget outcomes differ from 8/128:\n got %+v\nwant %+v", got, want)
	}
	if exact, derived, misses := tierStats(r); exact != 8 || derived != 0 || misses != 8 {
		t.Fatalf("tier answered %d exact, %d derived, missed %d; want 8, 0, 8", exact, derived, misses)
	}
}

// A profile tuned under the same name is another model: neither outcome
// tier may answer it with the original profile's outcomes.
func TestTunedProfileKeepsItsOwnOutcomes(t *testing.T) {
	tuned := model.GPT4o
	tuned.Temperature = 2.5
	tuned.HeuristicSkill = 0.2
	fresh, _ := runner(t)
	ths := fresh.TestSet()[:20]
	want := fresh.RunSweep(tuned, prompt.Hint, ths)

	for _, withStore := range []bool{false, true} {
		var r *Runner
		var pc *store.Cache
		if withStore {
			r, pc = storeRunner(t, t.TempDir(), corpusHash(t), 0)
		} else {
			r, _ = runner(t)
		}
		base := r.RunSweep(model.GPT4o, prompt.Hint, ths)
		r.FlushProofStore()
		got := r.RunSweep(tuned, prompt.Hint, ths)
		if pc != nil {
			if err := pc.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if reflect.DeepEqual(base, want) {
			t.Fatal("the tuned profile proves the same as GPT-4o; the test needs a difference")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("store %v: a tuned GPT-4o after plain GPT-4o on one Runner got other outcomes than on a fresh Runner", withStore)
		}
	}
}
