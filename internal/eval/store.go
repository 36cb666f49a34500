// Outcome tiers: the eval layer is where a unit's outcome is looked up
// before anything searches. The in-memory tier answers units the run has
// already searched, at the same or another query limit; the on-disk store
// (internal/store) lets a warm re-sweep skip whole searches. Everything
// here runs off the search hot path: a unit looks up its outcome before
// searching, and new outcomes drain out through the store's write-behind
// appender.

package eval

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/store"
	"llmfscq/internal/textmetrics"
	"llmfscq/internal/tokenizer"
)

// Key-hasher tags for the persistence fingerprints (arbitrary, fixed).
const (
	tagHintSet = 0x6c667371_68696e74 // "lfsq hint"
	tagEnvFP   = 0x6c667371_656e7666 // "lfsq envf"
)

// persistIndex is the Runner's shared persistence bookkeeping, behind a
// pointer like promptIndex so ablation copies keep sharing it.
type persistIndex struct {
	hintOnce sync.Once
	hintFP   [2]uint64
}

// hintFingerprint hashes the sorted hint-set membership: prompts, n-gram
// statistics, and the test set all derive from it, so it belongs in the
// environment fingerprint alongside the theorem name.
func (r *Runner) hintFingerprint() [2]uint64 {
	r.persist.hintOnce.Do(func() {
		names := make([]string, 0, len(r.HintSet))
		for n, ok := range r.HintSet {
			if ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		kh := kernel.NewKeyHasher(tagHintSet)
		for _, n := range names {
			kh.Str(n)
		}
		r.persist.hintFP = kh.Sum()
	})
	return r.persist.hintFP
}

// envFingerprint identifies the restricted environment a theorem's search
// runs in: the hint split plus the theorem's corpus position (the
// declaration prefix is a pure function of the name, given the corpus hash
// that already prefixes every store key).
func (r *Runner) envFingerprint(th *corpus.Theorem) [2]uint64 {
	kh := kernel.NewKeyHasher(tagEnvFP)
	kh.Pair(r.hintFingerprint())
	kh.Str(th.Name)
	return kh.Sum()
}

// rootKey is the outcome key's root: the strict hash of the initial proof
// state of stmt, one goal with no variables or hypotheses, hashed as the
// keys that stores already hold have it. Its bytes must not change: the
// store's mirror sample is drawn from a hash of the key bytes, so a new
// root would re-search other units on every warm run (TestRootKeyPinned).
func rootKey(stmt *kernel.Form) [2]uint64 {
	g := kernel.NewKeyHasher(0x67)
	g.Word(0)
	g.Word(0)
	g.Pair(stmt.HashKey())
	s := kernel.NewKeyHasher(0x6a)
	s.Word(1)
	s.Pair(g.Sum())
	return s.Sum()
}

// profileFingerprint hashes every calibration constant of a model profile,
// the name included: a tuning change must miss, same as a corpus edit, and
// a tuned profile that keeps its name must not get the original's
// fingerprint.
func profileFingerprint(p model.Profile) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(p.Name))
	h.Write([]byte{0})
	word(uint64(p.ContextWindow))
	word(uint64(p.MaxOutputs))
	word(math.Float64bits(p.HeuristicSkill))
	word(math.Float64bits(p.RetrievalSkill))
	word(math.Float64bits(p.HintBoost))
	word(math.Float64bits(p.Temperature))
	word(math.Float64bits(p.NoiseRate))
	word(math.Float64bits(p.DistractionHalfLife))
	return h.Sum64()
}

// searchName names the search algorithm for the outcome key. A custom
// Search func without a declared SearchName cannot be fingerprinted, so it
// disables both outcome tiers rather than risking a cross-algorithm hit.
func (r *Runner) searchName() string {
	if r.Search == nil {
		return "best-first"
	}
	return r.SearchName
}

// outcomeKey builds the key of one (theorem, model, setting, variant)
// search. ok is false for an anonymous custom search, which both outcome
// tiers skip. The key holds the budget the search runs at, defaulted by
// core, so a zero Width or QueryLimit keys as the default it searches at:
// keyed as 0, a unit at the default limit would be answered from a
// fuel-128 entry as a Fuelout after 0 queries.
//
// The width is keyed at its effective value too. A query returns at most
// the profile's MaxOutputs candidates and the width only truncates them
// (core.Config.Width), so every width at or above MaxOutputs is the same
// search and keys as MaxOutputs: the ablation's width-16 units are the
// grid's width-8 units.
func (r *Runner) outcomeKey(prof model.Profile, settingStr, variant, search string, th *corpus.Theorem) (store.OutcomeKey, bool) {
	if search == "" {
		return store.OutcomeKey{}, false
	}
	budget := core.Config{Width: r.Width, QueryLimit: r.QueryLimit}.WithDefaults()
	if prof.MaxOutputs > 0 {
		budget.Width = min(budget.Width, prof.MaxOutputs)
	}
	return store.OutcomeKey{
		Env:     r.envFingerprint(th),
		Root:    rootKey(th.Stmt),
		Profile: profileFingerprint(prof),
		Setting: settingStr,
		Variant: variant,
		Search:  search,
		Width:   budget.Width,
		Fuel:    budget.QueryLimit,
		Seed:    r.Seed,
	}, true
}

// outcomeTier is the in-memory outcome tier: the outcome of every unit the
// run has answered, so a later unit with the same key is answered without a
// search. The ablations of the paper schedule (Experiments) repeat grid
// cells and rerun them at other query limits. Runner copies share the tier
// through the pointer.
//
// A query-limited search's entry is keyed without its limit and holds the
// limit it ran at. The limit only stops a search (core.Config.QueryLimit),
// so one entry answers other limits exactly; see lookup. Its width is keyed
// at its effective value (outcomeKey), so one entry answers every width at
// or above the model's output cap. A whole-proof unit
// budgets attempts, not queries, so its limit stays in its key and it is
// answered only at its exact key.
type outcomeTier struct {
	mu      sync.Mutex
	entries map[store.OutcomeKey]tierEntry

	// exact counts units answered by an entry run at their own limit,
	// derived those answered from another limit, misses the rest.
	exact, derived, misses atomic.Int64
}

type tierEntry struct {
	rec   store.OutcomeRec
	limit int
}

func newOutcomeTier() *outcomeTier {
	return &outcomeTier{entries: map[store.OutcomeKey]tierEntry{}}
}

// lookup answers a unit at query limit limit from the entry under key. At
// the entry's limit the entry stands. At another limit it stands if it did
// not run out of fuel and used at most limit queries. Otherwise a smaller
// limit runs out of fuel after limit queries, and a larger one is a miss:
// the entry does not say how the search goes on.
func (t *outcomeTier) lookup(key store.OutcomeKey, limit int) (store.OutcomeRec, bool) {
	t.mu.Lock()
	e, ok := t.entries[key]
	t.mu.Unlock()
	switch {
	case !ok:
	case e.limit == limit:
		t.exact.Add(1)
		return e.rec, true
	case core.Status(e.rec.Status) != core.Fuelout && e.rec.Queries <= limit:
		t.derived.Add(1)
		return e.rec, true
	case limit < e.limit:
		t.derived.Add(1)
		return store.OutcomeRec{Status: uint8(core.Fuelout), Queries: limit}, true
	}
	t.misses.Add(1)
	return store.OutcomeRec{}, false
}

// put keeps the record of a unit run at limit, unless the key's entry ran
// at a larger limit: that entry answers everything this one would.
func (t *outcomeTier) put(key store.OutcomeKey, limit int, rec store.OutcomeRec) {
	t.mu.Lock()
	if e, ok := t.entries[key]; !ok || e.limit < limit {
		t.entries[key] = tierEntry{rec: rec, limit: limit}
	}
	t.mu.Unlock()
}

// persistedOutcome answers one unit from the in-memory tier, then the
// persistent store, then a live search, and builds its Outcome from the
// record that answered. limited marks a query-limited search, whose tier
// entry answers other limits. A unit the tier answers never reaches the
// store: it is not looked up, mirrored or recorded there.
func (r *Runner) persistedOutcome(prof model.Profile, settingStr, variant, search string, limited bool, th *corpus.Theorem, live func() store.OutcomeRec) Outcome {
	key, ok := r.outcomeKey(prof, settingStr, variant, search, th)
	if !ok {
		return r.rebuildOutcome(prof, settingStr, th, live())
	}
	tierKey := key
	if limited {
		tierKey.Fuel = 0
	}
	rec, hit := r.outcomes.lookup(tierKey, key.Fuel)
	if !hit {
		rec = r.storedOutcome(key, live)
		r.outcomes.put(tierKey, key.Fuel, rec)
	}
	return r.rebuildOutcome(prof, settingStr, th, rec)
}

// storedOutcome runs one unit through the persistent outcome store. A
// hit is served without searching, except for a deterministic mirror
// sample of hits, which runs live, compares the records, and returns the
// live one. A mirrored record is never rewritten, so a mismatch recurs on
// every run until the store is cleared. A miss, including a record whose
// status byte is not a core.Status, runs live and records the outcome,
// which replaces the invalid record.
func (r *Runner) storedOutcome(key store.OutcomeKey, live func() store.OutcomeRec) store.OutcomeRec {
	if r.ProofStore == nil {
		return live()
	}
	if warm, hit := r.ProofStore.LookupOutcome(key, validStatus); hit {
		if !r.ProofStore.MirrorOutcome(key) {
			return warm
		}
		rec := live()
		r.ProofStore.NoteMirror(rec == warm)
		return rec
	}
	rec := live()
	r.ProofStore.RecordOutcome(key, rec)
	return rec
}

// validStatus reports whether a persisted status byte is a core.Status. The
// tables count an outcome by its status, so serving any other byte would
// silently drop the outcome from every rate.
func validStatus(b uint8) bool {
	switch core.Status(b) {
	case core.Proved, core.Stuck, core.Fuelout:
		return true
	}
	return false
}

// rebuildOutcome builds a unit's Outcome from its record, whichever source
// answered: a live search, the in-memory tier or the store. A record holds
// only the search's irreproducible results (status, query count, proof
// script); this is the one place that derives token counts, similarity and
// relative length, so a warm Outcome equals a cold one by construction.
func (r *Runner) rebuildOutcome(prof model.Profile, settingStr string, th *corpus.Theorem, rec store.OutcomeRec) Outcome {
	out := Outcome{
		Theorem:     th.Name,
		File:        th.File,
		Category:    th.Category,
		Model:       prof.Name,
		Setting:     settingStr,
		Status:      core.Status(rec.Status),
		Queries:     rec.Queries,
		HumanTokens: tokenizer.Count(th.Proof),
	}
	if out.Status == core.Proved {
		out.Proof = rec.Proof
		out.GenTokens = tokenizer.Count(out.Proof)
		out.Similarity = textmetrics.Similarity(out.Proof, th.Proof)
		out.RelLength = textmetrics.RelativeLength(out.Proof, th.Proof)
	}
	return out
}

// FlushProofStore flushes the persistent store's write-behind queue. Call
// once at end of run, before reading stats or closing the store.
func (r *Runner) FlushProofStore() {
	if r.ProofStore != nil {
		r.ProofStore.Flush()
	}
}

// ProofStoreMismatches returns the outcome-level mirror cross-check
// failures. Any nonzero value means a persisted outcome disagreed with a
// live recomputation — corrupt storage or broken determinism — and the run
// must not pass silently.
func (r *Runner) ProofStoreMismatches() int64 {
	if r.ProofStore == nil {
		return 0
	}
	return r.ProofStore.Mismatches()
}

// outcomeStatsJSON is the in-memory outcome tier's part of the cache-stats
// line.
type outcomeStatsJSON struct {
	Exact   int64 `json:"exact"`
	Derived int64 `json:"derived"`
	Misses  int64 `json:"misses"`
}

// CacheStatsJSON renders the run's single structured cache-stats line: the
// in-memory outcome tier and, when mounted, the persistent store.
func (r *Runner) CacheStatsJSON() string {
	line := struct {
		Event      string            `json:"event"`
		Outcomes   outcomeStatsJSON  `json:"outcomes"`
		Persistent *store.CacheStats `json:"persistent,omitempty"`
	}{
		Event:    "cache-stats",
		Outcomes: outcomeStatsJSON{Exact: r.outcomes.exact.Load(), Derived: r.outcomes.derived.Load(), Misses: r.outcomes.misses.Load()},
	}
	if r.ProofStore != nil {
		st := r.ProofStore.Stats()
		line.Persistent = &st
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return string(b)
}
