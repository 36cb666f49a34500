// Package bench holds the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section. Each benchmark runs a
// bounded slice of the corresponding experiment per iteration and reports
// coverage (or the relevant metric) via b.ReportMetric; the full-scale
// regeneration of every table/figure is `go run ./cmd/experiments -all`.
package bench

import (
	"sync"
	"testing"

	"llmfscq/internal/analysis"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
	"llmfscq/internal/tokenizer"
)

var (
	benchOnce   sync.Once
	benchCorpus *corpus.Corpus
)

func loadCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		c, err := corpus.Default()
		if err != nil {
			b.Fatalf("loading corpus: %v", err)
		}
		benchCorpus = c
	})
	return benchCorpus
}

// newRunner builds a Runner with no prior outcomes. A benchmark that
// measures searches builds one per iteration: a Runner's outcome tier
// answers a unit it has already run without searching, so a reused Runner
// would measure lookups from the second iteration on. Its per-runner
// caches (restricted environments, prompt items, lemma table, n-grams)
// are rebuilt per iteration too.
func newRunner(b *testing.B) *eval.Runner {
	r := eval.NewRunner(loadCorpus(b), 2025)
	r.Parallelism = 4
	return r
}

// slice takes a bounded, deterministic sample of the test set.
func slice(r *eval.Runner, n int) []*corpus.Theorem {
	ths := r.TestSet()
	if len(ths) > n {
		ths = ths[:n]
	}
	return ths
}

func coveragePct(outs []eval.Outcome) float64 {
	p := 0
	for _, o := range outs {
		if o.Status == core.Proved {
			p++
		}
	}
	if len(outs) == 0 {
		return 0
	}
	return 100 * float64(p) / float64(len(outs))
}

// BenchmarkFigure1a regenerates the Figure 1a rows (coverage by
// human-proof-length bin, vanilla -> hint) on a corpus slice with GPT-4o;
// run cmd/experiments -fig1a for all models at full scale.
func BenchmarkFigure1a(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 30)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		van := r.RunSweep(model.GPT4o, prompt.Vanilla, ths)
		hin := r.RunSweep(model.GPT4o, prompt.Hint, ths)
		sweep := eval.NewSweep()
		sweep.Add(model.GPT4o.Name, "vanilla", van)
		sweep.Add(model.GPT4o.Name, "hint", hin)
		if i == 0 {
			b.Log("\n" + sweep.Figure1a())
		}
		b.ReportMetric(coveragePct(van), "vanilla-cov-%")
		b.ReportMetric(coveragePct(hin), "hint-cov-%")
	}
}

// BenchmarkFigure1b regenerates the Figure 1b comparison: Gemini 1.5 Pro
// with the 1M vs the truncated 128k context window.
func BenchmarkFigure1b(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 30)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		full := r.RunSweep(model.GeminiPro, prompt.Hint, ths)
		trunc := r.RunSweep(model.GeminiPro128k, prompt.Hint, ths)
		b.ReportMetric(coveragePct(full), "1M-cov-%")
		b.ReportMetric(coveragePct(trunc), "128k-cov-%")
	}
}

// BenchmarkTable1 regenerates Table 1: per-category actual vs expected
// coverage for GPT-4o.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 40)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		sweep := eval.NewSweep()
		for _, s := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			sweep.Add(model.GPT4o.Name, s.String(), r.RunSweep(model.GPT4o, s, ths))
		}
		if i == 0 {
			b.Log("\n" + sweep.Table1("GPT-4o"))
		}
	}
}

// BenchmarkTable2 regenerates the Table 2 rows: proved/stuck/fuelout rates
// plus similarity and relative proof length, per model.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 20)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		sweep := eval.NewSweep()
		for _, prof := range []model.Profile{model.GPT4oMini, model.GPT4o} {
			for _, s := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
				sweep.Add(prof.Name, s.String(), r.RunSweep(prof, s, ths))
			}
		}
		if i == 0 {
			b.Log("\n" + sweep.Table2())
		}
	}
}

// BenchmarkFigure2 regenerates the Figure 2 case-study extraction: proved
// theorems whose generated proof is shorter than the human proof.
func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	ths := slice(newRunner(b), 40)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		sweep := eval.NewSweep()
		sweep.Add(model.GPT4o.Name, "hint", r.RunSweep(model.GPT4o, prompt.Hint, ths))
		out := sweep.Figure2(c, 3)
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkContextProbe regenerates the §4.3 probe: a failed short theorem
// re-run with the dependency-reduced context.
func BenchmarkContextProbe(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 30)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		full := r.RunSweep(model.GPT4o, prompt.Hint, ths)
		recovered, failedShort := 0, 0
		for j, o := range full {
			if o.Status == core.Proved || o.HumanTokens >= 16 {
				continue
			}
			failedShort++
			if r.RunReduced(model.GPT4o, prompt.Hint, ths[j]).Status == core.Proved {
				recovered++
			}
		}
		b.ReportMetric(float64(failedShort), "failed-short")
		b.ReportMetric(float64(recovered), "recovered")
	}
}

// BenchmarkAblationSearch compares best-first against the linear
// (Rango-style) and greedy baselines.
func BenchmarkAblationSearch(b *testing.B) {
	algs := map[string]func(core.Config) core.Result{
		"BestFirst": core.BestFirst,
		"Linear":    core.Linear,
		"Greedy":    core.Greedy,
	}
	for name, fn := range algs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			r := newRunner(b)
			r.Search = fn
			ths := slice(r, 20)
			for i := 0; i < b.N; i++ {
				outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
				b.ReportMetric(coveragePct(outs), "cov-%")
			}
		})
	}
}

// BenchmarkAblationWidth sweeps the search width (paper fixes 8).
func BenchmarkAblationWidth(b *testing.B) {
	for _, w := range []int{1, 4, 8, 16} {
		b.Run(map[int]string{1: "w1", 4: "w4", 8: "w8", 16: "w16"}[w], func(b *testing.B) {
			b.ReportAllocs()
			ths := slice(newRunner(b), 20)
			for i := 0; i < b.N; i++ {
				r := newRunner(b)
				r.Width = w
				outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
				b.ReportMetric(coveragePct(outs), "cov-%")
			}
		})
	}
}

// BenchmarkWarmSweep measures the persistent proof cache end to end:
// "cold" sweeps into an empty store (paying the search plus the
// write-behind appends), "warm" re-sweeps a primed store with a fresh
// runner per iteration, so every outcome answers from disk. Warm reports
// the outcome hit rate; coverage must match cold — the store changes
// latency, never tables.
func BenchmarkWarmSweep(b *testing.B) {
	files, err := corpus.Sources()
	if err != nil {
		b.Fatal(err)
	}
	hash := corpus.Hash(files)
	open := func(b *testing.B, dir string) (*eval.Runner, *store.Cache) {
		pc, err := store.OpenCache(store.CacheConfig{Dir: dir, CorpusHash: hash, MirrorDen: 16})
		if err != nil {
			b.Fatal(err)
		}
		r := newRunner(b)
		r.ProofStore = pc
		return r, pc
	}
	sweepOnce := func(b *testing.B, r *eval.Runner, pc *store.Cache) ([]eval.Outcome, store.CacheStats) {
		outs := r.RunSweep(model.GPT4o, prompt.Hint, slice(r, 30))
		r.FlushProofStore()
		if n := r.ProofStoreMismatches(); n != 0 {
			b.Fatalf("%d mirror mismatches", n)
		}
		st := pc.Stats()
		if err := pc.Close(); err != nil {
			b.Fatal(err)
		}
		return outs, st
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir() // a fresh empty store every iteration
			b.StartTimer()
			r, pc := open(b, dir)
			outs, _ := sweepOnce(b, r, pc)
			b.ReportMetric(coveragePct(outs), "cov-%")
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		r0, pc0 := open(b, dir)
		sweepOnce(b, r0, pc0) // prime the store
		var last store.CacheStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, pc := open(b, dir)
			outs, st := sweepOnce(b, r, pc)
			last = st
			b.ReportMetric(coveragePct(outs), "cov-%")
		}
		b.StopTimer()
		if h, m := last.OutcomeHits, last.OutcomeMisses; h+m > 0 {
			b.ReportMetric(100*float64(h)/float64(h+m), "hit-%")
		}
	})
}

// BenchmarkProofCheck measures the raw proof-checking throughput of the
// kernel on the whole corpus (all human proofs).
func BenchmarkProofCheck(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	files, err := corpus.Sources()
	if err != nil {
		b.Fatal(err)
	}
	_ = c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Load(files, corpus.Options{CheckProofs: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenizer measures token counting on the corpus sources.
func BenchmarkTokenizer(b *testing.B) {
	b.ReportAllocs()
	files, err := corpus.Sources()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, f := range files {
			total += tokenizer.Count(f.Src)
		}
		if total == 0 {
			b.Fatal("no tokens")
		}
	}
}

// BenchmarkSimilarity measures the normalized-Levenshtein metric used by
// Table 2.
func BenchmarkSimilarity(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	a := c.Theorems[0].Proof
	z := c.Theorems[len(c.Theorems)-1].Proof
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = textmetrics.Similarity(a, z)
	}
}

// BenchmarkWholeProof measures the §4.3 whole-proof probe: complete-script
// generation without checker interaction, verified after the fact.
func BenchmarkWholeProof(b *testing.B) {
	b.ReportAllocs()
	ths := slice(newRunner(b), 20)
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		proved := 0
		for _, th := range ths {
			if r.RunWholeProof(model.GPT4o, prompt.Hint, th, 4).Status == core.Proved {
				proved++
			}
		}
		b.ReportMetric(100*float64(proved)/float64(len(ths)), "cov-%")
	}
}

// BenchmarkPromptBuild measures prompt assembly for every test theorem in
// both settings: "direct" re-renders and re-tokenizes the corpus per prompt
// (the pre-cache behavior), "cached" assembles from the shared item cache
// the grid scheduler uses.
func BenchmarkPromptBuild(b *testing.B) {
	c := loadCorpus(b)
	hints := prompt.HintSplit(c, 0.5, 2025)
	cache := prompt.NewCache(c, hints)
	for _, bc := range []struct {
		name  string
		cache *prompt.Cache
	}{{"direct", nil}, {"cached", cache}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
					pb := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: model.GPT4o.ContextWindow, Cache: bc.cache}
					for _, th := range c.Theorems {
						total += pb.Build(th).TotalTokens
					}
				}
				if total == 0 {
					b.Fatal("empty prompts")
				}
			}
		})
	}
}

// BenchmarkRestrictEnv measures building the restricted environment of
// every theorem with a fresh runner per iteration — the single
// declaration-order pass with shared immutable prefixes, against a full
// per-theorem Env.Clone before this layer existed.
func BenchmarkRestrictEnv(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(c, 2025)
		for _, th := range c.Theorems {
			if env := r.RestrictEnv(th); env == nil {
				b.Fatal("nil env")
			}
		}
	}
}

// BenchmarkFingerprintKey measures the 128-bit state key (what the search
// seen-set hashes on) against rendering the textual fingerprint,
// on the same one-intros-deep states as BenchmarkFingerprint. Fresh states
// each iteration, so the per-state memo never amortizes the walk away.
func BenchmarkFingerprintKey(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	ths := c.Theorems
	if len(ths) > 50 {
		ths = ths[:50]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range ths {
			st := tactic.NewState(c.Env, th.Stmt)
			if ns, err := tactic.ApplySentence(st, "intros."); err == nil {
				st = ns
			}
			if st.FingerprintKey() == ([2]uint64{}) {
				b.Fatal("zero fingerprint key")
			}
		}
	}
}

// BenchmarkSubstFastPath measures ApplySubst when the substitution cannot
// touch the term: the variable-signature bloom filter returns the original
// pointer without walking ("miss"), against a substitution that really
// rewrites an occurrence ("hit").
func BenchmarkSubstFastPath(b *testing.B) {
	tm := kernel.A("plus",
		kernel.A("mult", kernel.V("n"), kernel.A("S", kernel.V("m"))),
		kernel.A("app", kernel.V("l"), kernel.A("cons", kernel.V("x"), kernel.V("l"))))
	for _, bc := range []struct {
		name string
		sub  kernel.Subst
	}{
		{"miss", kernel.Subst{"absent": kernel.A("O")}},
		{"hit", kernel.Subst{"n": kernel.A("S", kernel.A("O"))}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.sub["absent"] != nil && tm.ApplySubst(bc.sub) != tm {
					b.Fatal("fast path did not return the original pointer")
				} else if bc.sub["absent"] == nil && tm.ApplySubst(bc.sub) == tm {
					b.Fatal("substitution did not rewrite")
				}
			}
		})
	}
}

// BenchmarkFingerprint measures state fingerprinting on fresh states (one
// intros step deep, so goals carry hypotheses), the dedup operation every
// search candidate pays.
func BenchmarkFingerprint(b *testing.B) {
	b.ReportAllocs()
	c := loadCorpus(b)
	ths := c.Theorems
	if len(ths) > 50 {
		ths = ths[:50]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range ths {
			st := tactic.NewState(c.Env, th.Stmt)
			if ns, err := tactic.ApplySentence(st, "intros."); err == nil {
				st = ns
			}
			if st.Fingerprint() == "" {
				b.Fatal("empty fingerprint")
			}
		}
	}
}

// BenchmarkTypedLoad measures the typed-analysis tier end to end: parse
// the module, type-check every package against the shared stdlib importer,
// build the call graph, and compute the hot set — the cost every
// `cmd/lint -family typed` invocation (and the check.sh gate) pays. The
// standard-library closure is type-checked once per process, so
// steady-state iterations price the module itself.
func BenchmarkTypedLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := analysis.LoadModule(".")
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Check(); err != nil {
			b.Fatal(err)
		}
		if hot := m.CallGraph().HotSet(); len(hot) == 0 {
			b.Fatal("empty hot set")
		}
	}
}
