package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

func setup(t testing.TB, setting prompt.Setting, thName string) (*Model, *prompt.Prompt, *NGram, *tactic.State) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	th, ok := c.TheoremNamed(thName)
	if !ok {
		t.Fatalf("no theorem %s", thName)
	}
	hints := prompt.HintSplit(c, 0.5, 1)
	b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: GPT4o.ContextWindow}
	pr := b.Build(th)
	ng := BuildNGram(pr)
	mdl := NewWithLemmas(GPT4o, c.Env, NewLemmaTable(c.Env))
	return mdl, pr, ng, tactic.NewState(c.Env, th.Stmt)
}

func TestProposeDeterministic(t *testing.T) {
	mdl, pr, ng, st := setup(t, prompt.Hint, "app_assoc")
	// Propose returns its reused scratch slice; copy the first slate before
	// the second call overwrites it.
	a := append([]Candidate(nil), mdl.Propose(pr, st, nil, ng, rand.New(rand.NewSource(5)))...)
	b := mdl.Propose(pr, st, nil, ng, rand.New(rand.NewSource(5)))
	if len(a) != len(b) {
		t.Fatal("nondeterministic slate size")
	}
	for i := range a {
		if a[i].Tactic != b[i].Tactic || a[i].LogProb != b[i].LogProb {
			t.Fatalf("nondeterministic: %v vs %v", a[i], b[i])
		}
	}
}

func TestProposeRespectsWidthAndLogProbs(t *testing.T) {
	mdl, pr, ng, st := setup(t, prompt.Hint, "app_assoc")
	cands := mdl.Propose(pr, st, nil, ng, rand.New(rand.NewSource(9)))
	if len(cands) == 0 || len(cands) > GPT4o.MaxOutputs {
		t.Fatalf("slate size %d", len(cands))
	}
	for i, c := range cands {
		if c.LogProb > 0 || math.IsNaN(c.LogProb) {
			t.Fatalf("bad logprob %f", c.LogProb)
		}
		if i > 0 && cands[i-1].LogProb < c.LogProb {
			t.Fatal("slate not sorted by logprob")
		}
	}
}

// The model proposes at least one checker-valid tactic for a fresh goal.
func TestProposeSomethingValid(t *testing.T) {
	mdl, pr, ng, st := setup(t, prompt.Hint, "plus_comm")
	rng := rand.New(rand.NewSource(3))
	valid := 0
	for round := 0; round < 4; round++ {
		for _, c := range mdl.Propose(pr, st, nil, ng, rng) {
			if res := checker.TryTactic(st, c.Tactic); res.Status == checker.Applied {
				valid++
			}
		}
	}
	if valid == 0 {
		t.Fatal("no valid proposals over 4 rounds")
	}
}

// The model must not propose lemmas that were truncated out of its window.
func TestRetrievalRespectsTruncation(t *testing.T) {
	c, _ := corpus.Default()
	th, _ := c.TheoremNamed("tree_name_distinct_head")
	small := GPT4o
	small.ContextWindow = 300
	b := prompt.Builder{Corpus: c, Setting: prompt.Vanilla, HintSet: map[string]bool{}, Window: small.ContextWindow}
	pr := b.Build(th)
	mdl := NewWithLemmas(small, c.Env, NewLemmaTable(c.Env))
	st := tactic.NewState(c.Env, th.Stmt)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		for _, cand := range mdl.Propose(pr, st, nil, nil, rng) {
			for _, distant := range []string{"plus_comm", "app_nil_r", "split_assoc"} {
				if strings.Contains(cand.Tactic, distant) {
					t.Fatalf("proposed truncated-out lemma: %s", cand.Tactic)
				}
			}
		}
	}
}

func TestNGramMinesProofs(t *testing.T) {
	_, pr, ng, _ := setup(t, prompt.Hint, "tree_name_distinct_head")
	if ng.total == 0 {
		t.Fatal("n-gram saw no hint proofs")
	}
	// "intros" is ubiquitous in the corpus.
	if ng.uni["intros"] == 0 {
		t.Fatal("intros not mined")
	}
	if ng.Score("<start>", "intros.") <= 0 {
		t.Fatal("no score for a common opener")
	}
	_ = pr
	// Vanilla prompts yield empty n-grams.
	_, _, ngV, _ := setup(t, prompt.Vanilla, "tree_name_distinct_head")
	if ngV.total != 0 {
		t.Fatal("vanilla prompt produced n-gram mass")
	}
}

func TestNGramNameUsage(t *testing.T) {
	_, _, ng, _ := setup(t, prompt.Hint, "tree_name_distinct_head")
	// Some hypothesis or lemma name must have been used in hint proofs.
	if ng.NameUsage("H") == 0 && ng.NameUsage("IHl") == 0 && ng.NameUsage("IHn") == 0 {
		t.Fatal("no identifier usage mined")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range Paper() {
		if p.MaxOutputs != 8 {
			t.Errorf("%s: MaxOutputs %d (paper uses 8)", p.Name, p.MaxOutputs)
		}
		if p.Temperature <= 0 || p.HeuristicSkill <= 0 || p.HeuristicSkill > 1 {
			t.Errorf("%s: implausible profile %+v", p.Name, p)
		}
	}
	if GeminiPro128k.ContextWindow != 128000 || GeminiPro.ContextWindow != 1000000 {
		t.Error("context windows do not match the paper")
	}
	if GeminiPro128k.HeuristicSkill != GeminiPro.HeuristicSkill {
		t.Error("the 128k variant must differ only in context window")
	}
}

func TestWholeProofGeneratesScripts(t *testing.T) {
	c, _ := corpus.Default()
	th, _ := c.TheoremNamed("plus_O_n")
	hints := prompt.HintSplit(c, 0.5, 1)
	b := prompt.Builder{Corpus: c, Setting: prompt.Hint, HintSet: hints, Window: GPT4o.ContextWindow}
	pr := b.Build(th)
	ng := BuildNGram(pr)
	mdl := NewWithLemmas(GPT4o, c.Env, NewLemmaTable(c.Env))
	rng := rand.New(rand.NewSource(2))
	sawNonEmpty := false
	for i := 0; i < 8; i++ {
		script := mdl.WholeProof(pr, th.Stmt, ng, rng, 24)
		if len(script) > 24 {
			t.Fatalf("script exceeds step cap: %d", len(script))
		}
		if len(script) > 0 {
			sawNonEmpty = true
		}
	}
	if !sawNonEmpty {
		t.Fatal("whole-proof mode generated nothing across 8 attempts")
	}
}
