// Package eval reproduces the paper's evaluation (§4): it runs the
// best-first search with each simulated model over the corpus, in both
// prompt settings, and renders Figure 1a/1b, Table 1, Table 2, the Figure 2
// case studies, the §4.3 reduced-context probe, and the ablations.
package eval

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
)

// Outcome is the result of one (theorem, model, setting) search.
type Outcome struct {
	Theorem  string
	File     string
	Category corpus.Category
	Model    string
	Setting  string
	Status   core.Status
	Proof    string
	Queries  int

	HumanTokens int
	GenTokens   int
	Similarity  float64
	RelLength   float64
}

// Runner drives experiment sweeps.
type Runner struct {
	Corpus *corpus.Corpus
	// HintSet is the fixed random half of theorems whose proofs feed hinted
	// prompts; those theorems are excluded from evaluation.
	HintSet map[string]bool
	// Width and QueryLimit are the search hyperparameters (paper: 8, 128).
	Width      int
	QueryLimit int
	// Seed is the sampling seed: every unit's model RNG derives from it.
	// The hint split does not depend on it.
	Seed int64
	// Parallelism bounds concurrent searches; below 2, one runs at a time.
	Parallelism int
	// Search selects the algorithm (default core.BestFirst).
	Search func(core.Config) core.Result
	// Backend selects the tactic execution backend (nil = in-process).
	// A remote backend's local mirror decides every step, so result tables
	// are identical across backends; see internal/remote.
	Backend checker.Backend
	// ProofStore, when non-nil, persists per-theorem search outcomes across
	// processes (internal/store): a warm re-sweep at the same
	// corpus/seed/hyperparameters skips whole searches. Results are
	// byte-identical warm or cold — stored fields are exactly the search's
	// irreproducible outputs, derived metrics are recomputed, and a
	// deterministic mirror sample re-executes live to cross-check.
	ProofStore *store.Cache
	// SearchName names a custom Search func for the outcome key
	// ("best-first" is implied when Search is nil). A custom Search with an
	// empty name disables both outcome tiers for its sweeps: an anonymous
	// algorithm cannot be safely fingerprinted. A named search must keep
	// two core.Config contracts, because the in-memory tier answers one
	// budget from another: the QueryLimit contract, that the limit only
	// stops the search, and the Width contract, that the width only
	// truncates each query's candidates.
	SearchName string

	// The caches below are pointers so Runner values can be copied for
	// ablation variants (width/fuel/algorithm changes) while sharing the
	// corpus-derived state, none of which depends on those knobs.

	// prompts holds the pre-rendered, pre-tokenized context items for both
	// settings (see prompt.NewCache), built on first prompt assembly.
	prompts *promptIndex
	// ngrams memoizes n-gram models by the prompt's hinted-item set: the
	// mined statistics depend only on which hint proofs are visible, which
	// the whole grid shares far more often than it differs.
	ngrams *sync.Map
	// hintProofs parses each hint proof once for all the n-gram models
	// ngrams builds.
	hintProofs *model.HintProofs
	// lemmas holds the model's lemma table: the goal-independent analysis
	// of every corpus lemma statement, built once on the first search and
	// shared read-only by every search of every Runner copy (see
	// model.LemmaTable). It is keyed on nothing per unit on purpose: every
	// search builds a fresh prompt, so a cache keyed on the prompt pointer
	// hit 0 times in the 2,860 searches of a seed-2025 -all run while
	// holding every entry until exit (paper-cold peak RSS 354 MB against
	// 95 MB with the table; DESIGN.md §7).
	lemmas *lemmaIndex
	// searchers pools the simulated models and RNGs of finished searches,
	// so a grid worker reuses one model's vocabulary, id arrays and scratch
	// across its searches instead of growing them from empty each time
	// (see borrow).
	searchers *sync.Pool
	// persist holds the persistence fingerprints (see store.go).
	persist *persistIndex
	// outcomes is the in-memory outcome tier (see store.go): the ablation
	// copies' repeated and shorter-budget units are answered from it.
	outcomes *outcomeTier
}

// promptIndex caches the prompt item cache behind a once so that Runner
// copies (which share the pointer) build it a single time.
type promptIndex struct {
	once  sync.Once
	cache *prompt.Cache
}

// lemmaIndex caches the model's lemma table the same way.
type lemmaIndex struct {
	once  sync.Once
	table *model.LemmaTable
}

// splitSeed fixes the 50% hint split: the paper keeps one random split
// across all experiments, and a split drawn per seed changes which
// theorems are evaluated and so the amount of work by ±20%.
const splitSeed = 2025

// NewRunner builds a runner with the paper's hyperparameters and the fixed
// 50% hint split, with seed as its sampling seed. It is the only way to
// build a Runner: the unexported caches exist only in the Runners it
// returns and in their copies.
func NewRunner(c *corpus.Corpus, seed int64) *Runner {
	return &Runner{
		Corpus:     c,
		HintSet:    prompt.HintSplit(c, 0.5, splitSeed),
		Width:      8,
		QueryLimit: 128,
		Seed:       seed,
		prompts:    &promptIndex{},
		ngrams:     &sync.Map{},
		hintProofs: &model.HintProofs{},
		lemmas:     &lemmaIndex{},
		searchers: &sync.Pool{New: func() any {
			return &searcher{mdl: new(model.Model), rng: rand.New(rand.NewSource(0))}
		}},
		persist:  &persistIndex{},
		outcomes: newOutcomeTier(),
	}
}

// TryCacheStats always returns zeros. The cross-search Try memo it reported
// on is deleted (DESIGN.md §9); the method stays only because the
// benchmark harness in sweepbench/ still reads it.
func (r *Runner) TryCacheStats() (hits, misses, evicted, entries int64) {
	return 0, 0, 0, 0
}

// TestSet returns the theorems not used as hints, in corpus order.
func (r *Runner) TestSet() []*corpus.Theorem {
	var out []*corpus.Theorem
	for _, th := range r.Corpus.Theorems {
		if !r.HintSet[th.Name] {
			out = append(out, th)
		}
	}
	return out
}

// RestrictEnv returns the environment th is searched in: the corpus
// environment as it stood just before th was declared (see
// corpus.EnvBefore, which builds every theorem's once per corpus).
func (r *Runner) RestrictEnv(th *corpus.Theorem) *kernel.Env {
	return r.Corpus.EnvBefore(th.Name)
}

// jobSeed derives a deterministic per-job RNG seed.
func (r *Runner) jobSeed(thName, modelName, setting string) int64 {
	h := fnv.New64a()
	h.Write([]byte(thName))
	h.Write([]byte{0})
	h.Write([]byte(modelName))
	h.Write([]byte{0})
	h.Write([]byte(setting))
	return r.Seed ^ int64(h.Sum64())
}

// searcher is what one search borrows from Runner.searchers: a simulated
// model and the RNG that drives its sampling.
type searcher struct {
	mdl *model.Model
	rng *rand.Rand
}

// borrow takes a searcher from the pool, its model rebound to prof, env and
// the runner's lemma table and its RNG seeded with seed: the state
// model.NewWithLemmas and rand.New(rand.NewSource(seed)) would build. The
// caller puts it back when its search ends; nothing a search returns
// aliases the model (Propose's candidates are copied by the search).
func (r *Runner) borrow(prof model.Profile, env *kernel.Env, seed int64) *searcher {
	s := r.searchers.Get().(*searcher)
	s.mdl.Rebind(prof, env, r.lemmaTable())
	s.rng.Seed(seed)
	return s
}

// lemmaTable returns the shared lemma table, building it on first use.
func (r *Runner) lemmaTable() *model.LemmaTable {
	r.lemmas.once.Do(func() {
		r.lemmas.table = model.NewLemmaTable(r.Corpus.Env)
	})
	return r.lemmas.table
}

// builder assembles a prompt.Builder for one model/setting, wired to the
// shared item cache.
func (r *Runner) builder(prof model.Profile, setting prompt.Setting) prompt.Builder {
	r.prompts.once.Do(func() {
		r.prompts.cache = prompt.NewCache(r.Corpus, r.HintSet)
	})
	return prompt.Builder{
		Corpus:  r.Corpus,
		Setting: setting,
		HintSet: r.HintSet,
		Window:  prof.ContextWindow,
		Cache:   r.prompts.cache,
	}
}

// ngramFor returns the n-gram model mined from the prompt's hint proofs,
// memoized on the ordered set of proof-bearing items: lemma names map to
// fixed proofs, so two prompts exposing the same hinted items (the common
// case across a sweep — truncation mostly drops proof-less statements)
// yield identical models. The cached model is immutable and shared across
// grid workers.
func (r *Runner) ngramFor(pr *prompt.Prompt) *model.NGram {
	var key strings.Builder
	for i := range pr.Items {
		if pr.Items[i].Proof != "" {
			key.WriteString(pr.Items[i].Name)
			key.WriteByte(0)
		}
	}
	k := key.String()
	if cached, ok := r.ngrams.Load(k); ok {
		return cached.(*model.NGram)
	}
	ng, _ := r.ngrams.LoadOrStore(k, r.hintProofs.NGram(pr))
	return ng.(*model.NGram)
}

// RunTheorem searches for a proof of one theorem with one model/setting.
func (r *Runner) RunTheorem(prof model.Profile, setting prompt.Setting, th *corpus.Theorem) Outcome {
	env := r.RestrictEnv(th)
	return r.persistedOutcome(prof, setting.String(), "std", r.searchName(), true, th, func() store.OutcomeRec {
		b := r.builder(prof, setting)
		return r.liveSearch(prof, setting, th, env, b.Build(th))
	})
}

// RunReduced runs the §4.3 probe: the same search but with a hand-reduced,
// dependency-only context. The "reduced" variant keeps its outcomes apart
// from RunTheorem's, which share the theorem and setting but not the
// prompt.
func (r *Runner) RunReduced(prof model.Profile, setting prompt.Setting, th *corpus.Theorem) Outcome {
	env := r.RestrictEnv(th)
	return r.persistedOutcome(prof, setting.String(), "reduced", r.searchName(), true, th, func() store.OutcomeRec {
		b := r.builder(prof, setting)
		return r.liveSearch(prof, setting, th, env, b.ReducedContext(th))
	})
}

// liveSearch runs one proof search (r.Search, best-first by default) and
// reports its record.
func (r *Runner) liveSearch(prof model.Profile, setting prompt.Setting, th *corpus.Theorem, env *kernel.Env, pr *prompt.Prompt) store.OutcomeRec {
	ng := r.ngramFor(pr)
	s := r.borrow(prof, env, r.jobSeed(th.Name, prof.Name, setting.String()))
	defer r.searchers.Put(s)

	cfg := core.Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			return s.mdl.Propose(pr, st, path, ng, s.rng)
		},
		Width:      r.Width,
		QueryLimit: r.QueryLimit,
		Backend:    r.Backend,
		Lemma:      th.Name,
	}
	search := r.Search
	if search == nil {
		search = core.BestFirst
	}
	res := search(cfg)

	rec := store.OutcomeRec{Status: uint8(res.Status), Queries: res.Queries}
	if res.Status == core.Proved {
		rec.Proof = joinSentences(res.Proof)
	}
	return rec
}

// joinSentences renders a tactic script as one proof string, each sentence
// trimmed and terminated by a period.
func joinSentences(script []string) string {
	sentences := make([]string, len(script))
	for i, s := range script {
		s = strings.TrimSpace(s)
		if !strings.HasSuffix(s, ".") {
			s += "."
		}
		sentences[i] = s
	}
	return strings.Join(sentences, " ")
}

// RunSweep evaluates a model over theorems in one setting, fanning out over
// the grid scheduler's bounded worker pool; results keep theorem order.
func (r *Runner) RunSweep(prof model.Profile, setting prompt.Setting, ths []*corpus.Theorem) []Outcome {
	return r.RunGrid([]GridJob{{Profile: prof, Setting: setting, Theorems: ths}})[0]
}

// RunWholeProof runs the §4.3 whole-proof probe: the model writes a
// complete script in one pass (no checker interaction, `attempts`
// independent samples) and the script is verified afterwards. Returns an
// Outcome whose Status is Proved only if some attempt replays.
func (r *Runner) RunWholeProof(prof model.Profile, setting prompt.Setting, th *corpus.Theorem, attempts int) Outcome {
	env := r.RestrictEnv(th)
	// Whole-proof generation has no search algorithm, but its outcomes are
	// just as deterministic; "whole-proof" stands in for the search name and
	// the attempt budget goes in the variant.
	return r.persistedOutcome(prof, setting.String()+"+whole-proof", "whole:"+strconv.Itoa(attempts), "whole-proof", false, th, func() store.OutcomeRec {
		return r.wholeProof(prof, setting, th, env, attempts)
	})
}

// wholeProof samples up to attempts complete scripts and checks each. The
// record counts one query per sampled script.
func (r *Runner) wholeProof(prof model.Profile, setting prompt.Setting, th *corpus.Theorem, env *kernel.Env, attempts int) store.OutcomeRec {
	b := r.builder(prof, setting)
	pr := b.Build(th)
	ng := r.ngramFor(pr)
	s := r.borrow(prof, env, r.jobSeed(th.Name, prof.Name, setting.String()+"/whole"))
	defer r.searchers.Put(s)

	rec := store.OutcomeRec{Status: uint8(core.Stuck)}
	for a := 0; a < attempts; a++ {
		proof := joinSentences(s.mdl.WholeProof(pr, th.Stmt, ng, s.rng, 24))
		rec.Queries++
		if proof == "" {
			continue
		}
		if err := tactic.CheckProof(env, th.Stmt, proof); err == nil {
			rec.Status = uint8(core.Proved)
			rec.Proof = proof
			break
		}
	}
	return rec
}
