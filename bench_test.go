// Package bench holds micro-benchmarks of the layers under the experiment
// sweep: proof checking, tokenizing, similarity, prompt assembly, env
// restriction, state fingerprints, substitution and the typed lint tier.
// The sweep itself, `go run ./cmd/experiments -all`, is measured at full
// scale by the harness in sweepbench/, which times every table and figure
// of the paper's evaluation section.
package bench

import (
	"sync"
	"testing"

	"llmfscq/internal/analysis"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
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
