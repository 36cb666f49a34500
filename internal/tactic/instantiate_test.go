package tactic_test

import (
	"sort"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/tactic"
)

// TestInstantiateMatchesPerBinderOnCorpus checks the one-walk-per-block
// instantiation against the per-binder walk on every corpus lemma and
// inductive rule, from a fresh counter and from one auto has advanced.
func TestInstantiateMatchesPerBinderOnCorpus(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range c.Env.Lemmas {
		names = append(names, name)
	}
	sort.Strings(names)
	checked := 0
	for _, name := range names {
		for _, skip := range []int{0, 7} {
			if err := tactic.CheckInstantiation(c.Env.Lemmas[name].Stmt, skip); err != nil {
				t.Fatalf("lemma %s (skip %d): %v", name, skip, err)
			}
		}
		checked++
	}
	for _, p := range c.Env.Preds {
		for i := range p.Rules {
			if err := tactic.CheckInstantiation(p.Rules[i].Statement(), 0); err != nil {
				t.Fatalf("rule %s: %v", p.Rules[i].Name, err)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("checked only %d statements", checked)
	}
}
