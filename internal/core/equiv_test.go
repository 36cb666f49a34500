package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// pseudoProposer builds a stateless pseudo-random proposer: the slate is a
// pure function of (case seed, parent fingerprint key, path), so every search
// mode sees identical candidates no matter how expansions are scheduled.
// A stateful rng would couple the slates to call order and make the
// equivalence assertion vacuous.
func pseudoProposer(seed uint64, width int) Proposer {
	pool := []string{
		"intros.", "simpl.", "reflexivity.", "symmetry.",
		"induction n.", "induction l.", "induction b.",
		"rewrite IHn.", "rewrite IHl.", "auto.",
		"rewrite nope.", "this is not a tactic.",
	}
	return func(st *tactic.State, path []string) []model.Candidate {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%x", seed, st.FingerprintKey())
		for _, p := range path {
			fmt.Fprintf(h, "|%s", p)
		}
		r := h.Sum64()
		n := 1 + int(r%uint64(width))
		out := make([]model.Candidate, 0, n)
		for i := 0; i < n; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			out = append(out, model.Candidate{
				Tactic:  pool[(r>>33)%uint64(len(pool))],
				LogProb: -0.05 - float64((r>>20)%1000)/250,
			})
		}
		return out
	}
}

// TestSearchModeEquivalence is the determinism property test of
// search.child's two branches: across randomized proposers, theorems,
// widths, and algorithms, a search through a document that offers only
// Try (no checker.ScratchTryer, so every candidate takes the plain-Try
// branch) must produce Result structs identical to the default search,
// which runs every candidate through TryScratch and the search's arena.
func TestSearchModeEquivalence(t *testing.T) {
	env, c := loadEnv(t)
	be := &countingBackend{}

	theorems := []string{"plus_O_n", "plus_comm", "app_nil_r", "andb_comm", "negb_involutive", "plus_n_O"}
	algos := []struct {
		name   string
		search func(Config) Result
	}{
		{"bestfirst", BestFirst},
		{"linear", Linear},
		{"greedy", Greedy},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for ti, name := range theorems {
			th, ok := c.TheoremNamed(name)
			if !ok {
				t.Fatalf("theorem %s missing", name)
			}
			width := 2 + (ti+int(seed))%4
			for _, alg := range algos {
				base := Config{
					Env:        env,
					Stmt:       th.Stmt,
					Propose:    pseudoProposer(seed*1000+uint64(ti), width),
					Width:      width,
					QueryLimit: 16,
				}
				want := alg.search(base)
				tryOnly := base
				tryOnly.Backend = be
				if got := alg.search(tryOnly); !reflect.DeepEqual(got, want) {
					t.Errorf("seed=%d %s/%s/try-only diverged:\n got %+v\nwant %+v",
						seed, name, alg.name, got, want)
				}
			}
		}
	}
	// The equivalence above is vacuous unless the plain-Try branch ran.
	if be.tries == 0 {
		t.Fatal("try-only leg executed no candidate")
	}
}
