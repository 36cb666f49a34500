package eval

import (
	"strings"
	"testing"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

func runner(t testing.TB) (*Runner, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c, 2025)
	r.Parallelism = 8
	return r, c
}

func TestTestSetExcludesHints(t *testing.T) {
	r, c := runner(t)
	test := r.TestSet()
	if len(test)+len(r.HintSet) != len(c.Theorems) {
		t.Fatalf("partition broken: %d + %d != %d", len(test), len(r.HintSet), len(c.Theorems))
	}
	for _, th := range test {
		if r.HintSet[th.Name] {
			t.Fatalf("hint theorem %s in test set", th.Name)
		}
	}
}

func TestRestrictEnvCutsFuture(t *testing.T) {
	r, c := runner(t)
	th, _ := c.TheoremNamed("plus_comm")
	env := r.RestrictEnv(th)
	if _, ok := env.Lemmas["plus_comm"]; ok {
		t.Fatal("theorem can see itself")
	}
	if _, ok := env.Lemmas["mult_comm"]; ok {
		t.Fatal("theorem can see a later lemma")
	}
	if _, ok := env.Lemmas["plus_n_O"]; !ok {
		t.Fatal("earlier lemma missing")
	}
}

// Two Runners, because a second run on one Runner is answered by its
// outcome tier without a search.
func TestRunTheoremDeterministic(t *testing.T) {
	r1, c := runner(t)
	r2, _ := runner(t)
	th, _ := c.TheoremNamed("plus_assoc")
	a := r1.RunTheorem(model.GPT4o, prompt.Hint, th)
	b := r2.RunTheorem(model.GPT4o, prompt.Hint, th)
	if a.Status != b.Status || a.Proof != b.Proof || a.Queries != b.Queries {
		t.Fatalf("nondeterministic outcomes: %+v vs %+v", a, b)
	}
}

// Proofs found by the search must replay in the restricted environment —
// the end-to-end integrity property of the whole pipeline.
func TestFoundProofsReplay(t *testing.T) {
	r, c := runner(t)
	ths := r.TestSet()
	if len(ths) > 25 {
		ths = ths[:25]
	}
	outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	proved := 0
	for _, o := range outs {
		if o.Status != core.Proved {
			continue
		}
		proved++
		th, _ := c.TheoremNamed(o.Theorem)
		env := r.RestrictEnv(th)
		if err := replayCheck(env, th, o.Proof); err != nil {
			t.Errorf("%s: generated proof does not replay: %v", o.Theorem, err)
		}
	}
	if proved == 0 {
		t.Fatal("GPT-4o hinted proved nothing in the first 25 theorems")
	}
}

func TestSweepTables(t *testing.T) {
	r, _ := runner(t)
	ths := r.TestSet()
	if len(ths) > 20 {
		ths = ths[:20]
	}
	sweep := NewSweep()
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		sweep.Add(model.GPT4o.Name, setting.String(), r.RunSweep(model.GPT4o, setting, ths))
	}
	fig1a := sweep.Figure1a()
	if !strings.Contains(fig1a, "GPT-4o") || !strings.Contains(fig1a, "overall") {
		t.Fatalf("Figure 1a rendering:\n%s", fig1a)
	}
	t1 := sweep.Table1("GPT-4o")
	if !strings.Contains(t1, "Utilities") || !strings.Contains(t1, "File System") {
		t.Fatalf("Table 1 rendering:\n%s", t1)
	}
	t2 := sweep.Table2()
	if !strings.Contains(t2, "proved") || !strings.Contains(t2, "similarity") {
		t.Fatalf("Table 2 rendering:\n%s", t2)
	}
}

// Runner copies — the ablation sweeps' `rr := *r` — share the model's
// lemma table: one table over the corpus, built once, whichever copy
// searches first, and not grown by the searches that read it.
func TestRunnerCopiesShareLemmaTable(t *testing.T) {
	r, c := runner(t)
	rr := *r
	rr.Width = 4
	lt := rr.lemmaTable()
	if lt == nil || r.lemmaTable() != lt {
		t.Fatal("runner copies built separate lemma tables")
	}
	if lt.Len() != len(c.Env.Lemmas) {
		t.Fatalf("lemma table holds %d lemmas, corpus has %d", lt.Len(), len(c.Env.Lemmas))
	}
	ths := rr.TestSet()
	if len(ths) > 12 {
		ths = ths[:12]
	}
	rr.RunSweep(model.GPT4o, prompt.Hint, ths)
	if rr.lemmaTable() != lt || r.lemmaTable() != lt {
		t.Fatal("a sweep rebuilt the lemma table")
	}
	if lt.Len() != len(c.Env.Lemmas) {
		t.Fatalf("lemma table grew to %d lemmas after a sweep", lt.Len())
	}
}

func TestBins(t *testing.T) {
	cases := map[int]int{0: 0, 15: 0, 16: 1, 31: 1, 32: 2, 63: 2, 64: 3, 512: 6, 9999: 6}
	for tokens, want := range cases {
		if got := BinOf(tokens); got != want {
			t.Errorf("BinOf(%d) = %d, want %d", tokens, got, want)
		}
	}
	if BinLabel(0) != "<16" || BinLabel(NumBins()-1) != ">=512" {
		t.Fatalf("labels: %s %s", BinLabel(0), BinLabel(NumBins()-1))
	}
}

func TestSubsampleDeterministic(t *testing.T) {
	r, _ := runner(t)
	a := r.Subsample(r.TestSet(), 0.1)
	b := r.Subsample(r.TestSet(), 0.1)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("sizes %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("subsample not deterministic")
		}
	}
}

// replayCheck verifies a generated proof against the restricted env.
func replayCheck(env *kernel.Env, th *corpus.Theorem, proof string) error {
	return tactic.CheckProof(env, th.Stmt, proof)
}
