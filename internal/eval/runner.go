// Package eval reproduces the paper's evaluation (§4): it runs the
// best-first search with each simulated model over the corpus, in both
// prompt settings, and renders Figure 1a/1b, Table 1, Table 2, the Figure 2
// case studies, the §4.3 reduced-context probe, and the ablations.
package eval

import (
	"hash/fnv"
	"math/rand"
	"sort"
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
	// Seed makes the whole sweep reproducible.
	Seed int64
	// Parallelism bounds concurrent searches (0 = serial).
	Parallelism int
	// Search selects the algorithm (default core.BestFirst).
	Search func(core.Config) core.Result
	// Backend selects the tactic execution backend (nil = in-process).
	// Backends mask their own failures, so result tables are identical
	// across backends; see internal/remote.
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
	// the core.Config.QueryLimit contract, that the limit only stops the
	// search, because the in-memory tier answers one limit from another.
	SearchName string

	// The caches below are pointers so Runner values can be copied for
	// ablation variants (width/fuel/algorithm changes) while sharing the
	// corpus-derived state, none of which depends on those knobs.

	// envs holds the per-theorem restricted environments, built lazily in
	// one declaration-order pass over the corpus.
	envs *envIndex
	// prompts holds the pre-rendered, pre-tokenized context items for both
	// settings (see prompt.NewCache), built on first prompt assembly.
	prompts *promptIndex
	// ngrams memoizes n-gram models by the prompt's hinted-item set: the
	// mined statistics depend only on which hint proofs are visible, which
	// the whole grid shares far more often than it differs.
	ngrams *sync.Map
	// lemmas holds the model's lemma table: the goal-independent analysis
	// of every corpus lemma statement, built once on the first search and
	// shared read-only by every search of every Runner copy (see
	// model.LemmaTable). It is keyed on nothing per unit on purpose: every
	// search builds a fresh prompt, so a cache keyed on the prompt pointer
	// hit 0 times in the 2,860 searches of a seed-2025 -all run while
	// holding every entry until exit (paper-cold peak RSS 354 MB against
	// 95 MB with the table; DESIGN.md §7).
	lemmas *lemmaIndex
	// persist holds the persistence fingerprints (see store.go).
	persist *persistIndex
	// outcomes is the in-memory outcome tier (see store.go): the ablation
	// copies' repeated and shorter-budget units are answered from it.
	outcomes *outcomeTier
}

// envIndex caches the restricted environments behind a once so that Runner
// copies (which share the pointer) build them a single time.
type envIndex struct {
	once   sync.Once
	byName map[string]*kernel.Env
}

// promptIndex caches the prompt item cache the same way.
type promptIndex struct {
	once  sync.Once
	cache *prompt.Cache
}

// lemmaIndex caches the model's lemma table the same way.
type lemmaIndex struct {
	once  sync.Once
	table *model.LemmaTable
}

// NewRunner builds a runner with the paper's hyperparameters and the fixed
// 50% hint split. It is the only way to build a Runner: the unexported
// caches exist only in the Runners it returns and in their copies.
func NewRunner(c *corpus.Corpus, seed int64) *Runner {
	return &Runner{
		Corpus:     c,
		HintSet:    prompt.HintSplit(c, 0.5, seed),
		Width:      8,
		QueryLimit: 128,
		Seed:       seed,
		envs:       &envIndex{},
		prompts:    &promptIndex{},
		ngrams:     &sync.Map{},
		lemmas:     &lemmaIndex{},
		persist:    newPersistIndex(),
		outcomes:   newOutcomeTier(),
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

// Subsample deterministically samples frac of the theorems (the paper
// evaluates large models on 10% of the non-hint set for budget reasons).
func (r *Runner) Subsample(ths []*corpus.Theorem, frac float64) []*corpus.Theorem {
	names := make([]*corpus.Theorem, len(ths))
	copy(names, ths)
	rng := rand.New(rand.NewSource(r.Seed + 17))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	k := int(float64(len(names)) * frac)
	if k < 1 {
		k = 1
	}
	sel := names[:k]
	sort.Slice(sel, func(i, j int) bool { return sel[i].Name < sel[j].Name })
	return sel
}

// RestrictEnv returns the environment as it stood just before the theorem
// was declared: the prover may not use the theorem itself or anything
// declared after it.
//
// All restricted environments are built together in one declaration-order
// pass over the corpus (see buildPrefixEnvs); per theorem only the lemma
// and hint maps are snapshotted, everything else — the datatype, function,
// predicate, and definition maps, the declarations themselves, and the
// LemmaOrder backing array — is shared with the full environment, which the
// tactic layer treats as immutable.
func (r *Runner) RestrictEnv(th *corpus.Theorem) *kernel.Env {
	r.envs.once.Do(func() {
		r.envs.byName = buildPrefixEnvs(r.Corpus.Env)
	})
	if env, ok := r.envs.byName[th.Name]; ok {
		return env
	}
	return r.Corpus.Env.Before(th.Name)
}

// buildPrefixEnvs walks LemmaOrder once, snapshotting the growing lemma
// prefix just before each declaration. The snapshot for lemma i costs O(i)
// map inserts and shares every other structure with the full environment —
// unlike a per-theorem Env.Clone, which copied all six maps and re-scanned
// LemmaOrder for every theorem.
func buildPrefixEnvs(full *kernel.Env) map[string]*kernel.Env {
	// lemIdx positions each lemma-backed hint so the per-theorem hint
	// filter is a single comparison.
	lemIdx := make(map[string]int, len(full.LemmaOrder))
	for i, name := range full.LemmaOrder {
		lemIdx[name] = i
	}
	envs := make(map[string]*kernel.Env, len(full.LemmaOrder))
	running := make(map[string]*kernel.Lemma, len(full.LemmaOrder))
	for i, name := range full.LemmaOrder {
		lemmas := make(map[string]*kernel.Lemma, len(running))
		for k, v := range running {
			lemmas[k] = v
		}
		hints := make(map[string]bool, len(full.Hints))
		hintOrder := make([]string, 0, len(full.HintOrder))
		for _, h := range full.HintOrder {
			// Hints name lemmas or inductive rules; rules are never cut.
			if idx, isLemma := lemIdx[h]; isLemma && idx >= i {
				continue
			}
			hints[h] = true
			hintOrder = append(hintOrder, h)
		}
		envs[name] = &kernel.Env{
			Datatypes:  full.Datatypes,
			ConstrData: full.ConstrData,
			Funs:       full.Funs,
			Preds:      full.Preds,
			Defs:       full.Defs,
			Lemmas:     lemmas,
			LemmaOrder: full.LemmaOrder[:i:i],
			Hints:      hints,
			HintOrder:  hintOrder,
		}
		running[name] = full.Lemmas[name]
	}
	return envs
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

// newModel binds a profile to a restricted environment, sharing the
// runner's lemma table.
func (r *Runner) newModel(prof model.Profile, env *kernel.Env) *model.Model {
	return model.NewWithLemmas(prof, env, r.lemmaTable())
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
	ng, _ := r.ngrams.LoadOrStore(k, model.BuildNGram(pr))
	return ng.(*model.NGram)
}

// RunTheorem searches for a proof of one theorem with one model/setting.
func (r *Runner) RunTheorem(prof model.Profile, setting prompt.Setting, th *corpus.Theorem) Outcome {
	env := r.RestrictEnv(th)
	return r.persistedOutcome(prof, setting.String(), "std", r.searchName(), true, th, env, func() store.OutcomeRec {
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
	return r.persistedOutcome(prof, setting.String(), "reduced", r.searchName(), true, th, env, func() store.OutcomeRec {
		b := r.builder(prof, setting)
		return r.liveSearch(prof, setting, th, env, b.ReducedContext(th))
	})
}

// liveSearch runs one proof search (r.Search, best-first by default) and
// reports its record.
func (r *Runner) liveSearch(prof model.Profile, setting prompt.Setting, th *corpus.Theorem, env *kernel.Env, pr *prompt.Prompt) store.OutcomeRec {
	ng := r.ngramFor(pr)
	mdl := r.newModel(prof, env)
	rng := rand.New(rand.NewSource(r.jobSeed(th.Name, prof.Name, setting.String())))

	cfg := core.Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			return mdl.Propose(pr, st, path, ng, rng)
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
	return r.persistedOutcome(prof, setting.String()+"+whole-proof", "whole:"+strconv.Itoa(attempts), "whole-proof", false, th, env, func() store.OutcomeRec {
		return r.wholeProof(prof, setting, th, env, attempts)
	})
}

// wholeProof samples up to attempts complete scripts and checks each. The
// record counts one query per sampled script.
func (r *Runner) wholeProof(prof model.Profile, setting prompt.Setting, th *corpus.Theorem, env *kernel.Env, attempts int) store.OutcomeRec {
	b := r.builder(prof, setting)
	pr := b.Build(th)
	ng := r.ngramFor(pr)
	mdl := r.newModel(prof, env)
	rng := rand.New(rand.NewSource(r.jobSeed(th.Name, prof.Name, setting.String()+"/whole")))

	rec := store.OutcomeRec{Status: uint8(core.Stuck)}
	for a := 0; a < attempts; a++ {
		proof := joinSentences(mdl.WholeProof(pr, th.Stmt, ng, rng, 24))
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
