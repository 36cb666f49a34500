// Persistent proof-cache integration: the eval layer is where the on-disk
// store (internal/store) meets the search stack. Outcome records let a warm
// re-sweep skip whole searches. Everything here runs off the search hot
// path: a unit looks up its outcome before searching, and new outcomes
// drain out through the store's write-behind appender.

package eval

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
	"llmfscq/internal/tokenizer"
)

// Key-hasher tags for the persistence fingerprints (arbitrary, fixed).
const (
	tagHintSet = 0x6c667371_68696e74 // "lfsq hint"
	tagEnvFP   = 0x6c667371_656e7666 // "lfsq envf"
)

// persistIndex is the Runner's shared persistence bookkeeping, behind a
// pointer like envIndex so ablation copies keep sharing it.
type persistIndex struct {
	hintOnce sync.Once
	hintFP   [2]uint64

	mu sync.Mutex
	// profFP memoizes profile fingerprints by name.
	profFP map[string]uint64
}

func newPersistIndex() *persistIndex {
	return &persistIndex{profFP: map[string]uint64{}}
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

// profileFingerprint hashes every calibration constant of a model profile:
// a tuning change must miss, same as a corpus edit.
func (r *Runner) profileFingerprint(p model.Profile) uint64 {
	r.persist.mu.Lock()
	if fp, ok := r.persist.profFP[p.Name]; ok {
		r.persist.mu.Unlock()
		return fp
	}
	r.persist.mu.Unlock()
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
	fp := h.Sum64()
	r.persist.mu.Lock()
	r.persist.profFP[p.Name] = fp
	r.persist.mu.Unlock()
	return fp
}

// searchName names the search algorithm for the outcome key. A custom
// Search func without a declared SearchName cannot be fingerprinted, so it
// disables outcome persistence rather than risking a cross-algorithm hit.
func (r *Runner) searchName() string {
	if r.Search == nil {
		return "best-first"
	}
	return r.SearchName
}

// effectiveBudget mirrors core.Config.defaults: the key must hold the
// hyperparameters the search actually ran with.
func (r *Runner) effectiveBudget() (width, fuel int) {
	width, fuel = r.Width, r.QueryLimit
	if width <= 0 {
		width = 8
	}
	if fuel <= 0 {
		fuel = 128
	}
	return width, fuel
}

// outcomeKey builds the persistent key of one (theorem, model, setting,
// variant) search. ok is false when outcome persistence is off for this
// run (no store, or an anonymous custom search).
func (r *Runner) outcomeKey(prof model.Profile, settingStr, variant, search string, th *corpus.Theorem, env *kernel.Env) (store.OutcomeKey, bool) {
	if r.ProofStore == nil || r.persist == nil || search == "" {
		return store.OutcomeKey{}, false
	}
	width, fuel := r.effectiveBudget()
	root := tactic.NewState(env, th.Stmt).StrictKey()
	return store.OutcomeKey{
		Env:     r.envFingerprint(th),
		Root:    root,
		Profile: r.profileFingerprint(prof),
		Setting: settingStr,
		Variant: variant,
		Search:  search,
		Width:   width,
		Fuel:    fuel,
		Seed:    r.Seed,
	}, true
}

// persistedOutcome runs one unit through the persistent outcome store. A
// hit is rebuilt and served without searching, except for a deterministic
// mirror sample of hits, which runs live, compares, and returns the live
// outcome. A mirrored record is never rewritten, so a mismatch recurs on
// every run until the store is cleared. A miss, including a record whose
// status byte is not a core.Status, runs live and records the outcome,
// which replaces the invalid record.
func (r *Runner) persistedOutcome(prof model.Profile, settingStr, variant, search string, th *corpus.Theorem, env *kernel.Env, live func() Outcome) Outcome {
	key, ok := r.outcomeKey(prof, settingStr, variant, search, th, env)
	if !ok {
		return live()
	}
	if rec, hit := r.ProofStore.LookupOutcome(key, validStatus); hit {
		warm := r.rebuildOutcome(prof, settingStr, th, rec)
		if !r.ProofStore.MirrorOutcome(key) {
			return warm
		}
		out := live()
		r.ProofStore.NoteMirror(out == warm)
		return out
	}
	out := live()
	r.ProofStore.RecordOutcome(key, store.OutcomeRec{
		Status:  uint8(out.Status),
		Queries: out.Queries,
		Proof:   out.Proof,
	})
	return out
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

// rebuildOutcome reconstructs a full Outcome from its persisted record.
// Only the search's irreproducible results are stored (status, query
// count, proof script); every derived metric is recomputed here with the
// same code the cold path uses, so a warm Outcome is equal by construction
// — the property the mirror sample cross-checks.
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

// tryStatsJSON is the in-memory tier of the cache-stats line.
type tryStatsJSON struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Evicted int64 `json:"evicted"`
	Entries int64 `json:"entries"`
}

// CacheStatsJSON renders the run's single structured cache-stats line:
// the in-memory TryCache tier and the persistent store tier together.
// Returns "" when neither tier is active.
func (r *Runner) CacheStatsJSON() string {
	line := struct {
		Event      string            `json:"event"`
		Try        *tryStatsJSON     `json:"try,omitempty"`
		Persistent *store.CacheStats `json:"persistent,omitempty"`
	}{Event: "cache-stats"}
	if tc := r.tryCache(); tc != nil {
		hits, misses, evicted, entries := tc.Stats()
		line.Try = &tryStatsJSON{Hits: hits, Misses: misses, Evicted: evicted, Entries: entries}
	}
	if r.ProofStore != nil {
		st := r.ProofStore.Stats()
		line.Persistent = &st
	}
	if line.Try == nil && line.Persistent == nil {
		return ""
	}
	b, err := json.Marshal(line)
	if err != nil {
		return ""
	}
	return string(b)
}
