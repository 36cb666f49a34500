package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
	"llmfscq/internal/tactic"
)

// pseudoProposer builds a stateless pseudo-random proposer: the slate is a
// pure function of (case seed, parent fingerprint, path), so every search
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
		fmt.Fprintf(h, "%d|%s", seed, st.Fingerprint())
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

// startBatchedBackend runs an in-process checkerd on a loopback port and
// returns a remote backend (its documents offer checker.BatchDoc).
func startBatchedBackend(t *testing.T) *remote.Backend {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(c.Env)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return remote.New(addr, protocol.DefaultTimeout)
}

// TestSearchModeEquivalence is the determinism property test: across
// randomized proposers, theorems, widths, and algorithms, the
// remote-batched execution strategy must produce Result structs identical
// to the lazy in-process baseline. Run under -race this also exercises the
// remote backend for data races.
func TestSearchModeEquivalence(t *testing.T) {
	env, c := loadEnv(t)
	be := startBatchedBackend(t)

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
					Lemma:      name,
					Propose:    pseudoProposer(seed*1000+uint64(ti), width),
					Width:      width,
					QueryLimit: 16,
				}
				want := alg.search(base)
				remote := base
				remote.Backend = be
				if got := alg.search(remote); !reflect.DeepEqual(got, want) {
					t.Errorf("seed=%d %s/%s/remote-batched diverged:\n got %+v\nwant %+v",
						seed, name, alg.name, got, want)
				}
			}
		}
	}
	// The remote leg masks wire trouble by design; the equivalence above is
	// vacuous for it unless batched cross-checks actually happened.
	if be.Stats.WireChecks.Load() == 0 || be.Stats.Mismatches.Load() != 0 {
		t.Fatalf("remote leg: %s", be.Stats.Snapshot())
	}
	var _ checker.Backend = be // the remote leg really went through the Backend interface
}
