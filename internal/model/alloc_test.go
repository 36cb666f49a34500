//go:build !race

package model

import (
	"math/rand"
	"testing"
)

// A model that has proposed at every state of the recorded searches must
// propose at them again without allocating: the view, the per-formula
// facts, the candidate tuples and the scratch are all warm, and the RNG is
// re-seeded so every draw, and so every tuple, repeats. A string
// concatenation or a per-query map in Propose fails this. Excluded under
// -race, whose instrumentation allocates.
func TestAllocProposeWarm(t *testing.T) {
	c, _, _ := testTheorems(t)
	shared := NewLemmaTable(c.Env)
	for _, s := range recordedSearches(t) {
		m := NewWithLemmas(GPT4o, s.Env, shared)
		rng := rand.New(rand.NewSource(13))
		pass := func() {
			rng.Seed(13)
			for _, q := range s.Queries {
				m.Propose(s.Prompt, q.State, q.Path, s.NGram, rng)
			}
		}
		pass()
		if a := testing.AllocsPerRun(5, pass); a != 0 {
			t.Errorf("%s: %v allocations per pass over %d warm queries, want 0", s.Theorem, a, len(s.Queries))
		}
	}
}
