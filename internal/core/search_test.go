package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

func loadEnv(t testing.TB) (*kernel.Env, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	return c.Env, c
}

func TestBestFirstProvesWithPerfectOracle(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("app_nil_r")
	steps := []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}
	i := 0
	res := BestFirst(Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			if i >= len(steps) {
				return nil
			}
			c := model.Candidate{Tactic: steps[i], LogProb: -0.1}
			i++
			return []model.Candidate{c}
		},
	})
	if res.Status != Proved {
		t.Fatalf("oracle search failed: %v", res.Status)
	}
	if len(res.Proof) != len(steps) {
		t.Fatalf("proof %v", res.Proof)
	}
	if res.Queries != len(steps) {
		t.Fatalf("queries %d", res.Queries)
	}
}

func TestBestFirstSelectsHighestCumLogProb(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("plus_O_n")
	// Root: two candidates; the high-probability branch ("intros.") must be
	// expanded before the low one.
	var expandedOrder []string
	res := BestFirst(Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			if len(path) > 0 {
				expandedOrder = append(expandedOrder, path[0])
			}
			if len(path) == 0 {
				return []model.Candidate{
					{Tactic: "intros.", LogProb: -0.1},
					{Tactic: "induction n.", LogProb: -3.0},
				}
			}
			if path[len(path)-1] == "intros." {
				return []model.Candidate{{Tactic: "reflexivity.", LogProb: -0.1}}
			}
			return nil
		},
		QueryLimit: 8,
	})
	if res.Status != Proved {
		t.Fatalf("status %v", res.Status)
	}
	if len(expandedOrder) == 0 || expandedOrder[0] != "intros." {
		t.Fatalf("expansion order %v", expandedOrder)
	}
}

func TestFueloutAndStuck(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("plus_comm")
	// A proposer that always returns a valid but useless cycle runs out of
	// fuel (each expansion costs a query).
	res := BestFirst(Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			return []model.Candidate{{Tactic: "intros.", LogProb: -1}, {Tactic: "assert (0 = 0) as HQ || assert (1 = 1) as HQ2 || intros.", LogProb: -2}}
		},
		QueryLimit: 5,
	})
	if res.Status == Proved {
		t.Fatal("nonsense proposer proved a theorem")
	}
	// A proposer with nothing to say gets stuck immediately.
	res = BestFirst(Config{
		Env:     env,
		Stmt:    th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate { return nil },
	})
	if res.Status != Stuck || res.Queries != 1 {
		t.Fatalf("empty proposer: %v after %d queries", res.Status, res.Queries)
	}
}

func TestDuplicateStatesPruned(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("plus_comm")
	// symmetry twice cycles; dedup must catch it and the search must stop
	// as stuck rather than looping to fuelout.
	res := BestFirst(Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			if len(path) == 0 {
				return []model.Candidate{{Tactic: "intros.", LogProb: -0.1}}
			}
			return []model.Candidate{{Tactic: "symmetry.", LogProb: -0.1}}
		},
		QueryLimit: 100,
	})
	if res.Status != Stuck {
		t.Fatalf("status %v", res.Status)
	}
	if res.InvalidDuplicate == 0 {
		t.Fatal("no duplicates detected")
	}
	if res.Queries >= 100 {
		t.Fatal("cycle not pruned")
	}
}

// countingBackend is the in-process backend, counting the sentences its
// documents execute. Its documents offer only Try, not
// checker.ScratchTryer, so a search through it takes search.child's
// plain-Try branch.
type countingBackend struct{ tries int }

func (b *countingBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	doc, err := checker.InProcess{}.NewDoc(env, stmt, lemma)
	return countingDoc{doc, &b.tries}, err
}

type countingDoc struct {
	checker.Doc
	tries *int
}

func (d countingDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	*d.tries++
	return d.Doc.Try(parent, path, sentence)
}

// TestWidthCap checks the Config.Width contract eval's outcome tier keys
// widths by: the width only truncates each query's candidates. For every
// algorithm, the seeded model, which returns at most MaxOutputs = 8
// candidates per query, searches the same at widths 8, 9 and 16; and a
// proposer returning 20 candidates at width 3 executes at most 3 per query.
func TestWidthCap(t *testing.T) {
	env, c := loadEnv(t)
	lt := model.NewLemmaTable(env)
	prof := model.GPT4oMini
	if prof.MaxOutputs != 8 {
		t.Fatalf("%s returns up to %d candidates per query; the widths below assume 8", prof.Name, prof.MaxOutputs)
	}
	twenty := make([]model.Candidate, 20)
	twenty[0] = model.Candidate{Tactic: "intros.", LogProb: -0.1}
	for i := 1; i < len(twenty); i++ {
		twenty[i] = model.Candidate{Tactic: fmt.Sprintf("apply no_such_lemma_%d.", i), LogProb: -1}
	}
	for _, alg := range []struct {
		name   string
		search func(Config) Result
	}{{"best-first", BestFirst}, {"linear", Linear}, {"greedy", Greedy}} {
		below := 0
		for i, th := range c.Theorems[:20] {
			seed := int64(i) + 1
			run := func(width int) Result {
				return alg.search(Config{Env: env, Stmt: th.Stmt, Propose: modelProposer(c, lt, th, prof, seed), Width: width})
			}
			at8 := run(8)
			for _, width := range []int{9, 16} {
				if got := run(width); !reflect.DeepEqual(got, at8) {
					t.Errorf("%s %s: width %d searched %+v, width 8 %+v", alg.name, th.Name, width, got, at8)
				}
			}
			if !reflect.DeepEqual(run(4), at8) {
				below++
			}
		}
		if below == 0 {
			t.Errorf("%s: width 4 searched as width 8 on every theorem; the slice needs a width below the cap to matter", alg.name)
		}

		th, _ := c.TheoremNamed("plus_comm")
		be := &countingBackend{}
		res := alg.search(Config{
			Env:     env,
			Stmt:    th.Stmt,
			Propose: func(*tactic.State, []string) []model.Candidate { return twenty },
			Width:   3,
			Backend: be,
		})
		if be.tries == 0 || be.tries > 3*res.Queries {
			t.Errorf("%s: a 20-candidate proposer at width 3 executed %d candidates in %d queries", alg.name, be.tries, res.Queries)
		}
	}
}

func TestLinearAndGreedy(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("plus_O_n")
	prop := func(st *tactic.State, path []string) []model.Candidate {
		return []model.Candidate{
			{Tactic: "intros.", LogProb: -0.2},
			{Tactic: "reflexivity.", LogProb: -0.4},
		}
	}
	for name, search := range map[string]func(Config) Result{"linear": Linear, "greedy": Greedy} {
		res := search(Config{Env: env, Stmt: th.Stmt, Propose: prop, QueryLimit: 16})
		if res.Status != Proved {
			t.Fatalf("%s: %v", name, res.Status)
		}
	}
}

// TestLinearOwnsCandidates: the model's Propose returns reused scratch,
// valid until its next call, and Linear's frames outlive that call, so
// they must copy their candidates. A proposer that refills one buffer on
// every query must search as one that returns fresh slices, on a theorem
// whose first branch dead-ends: Linear then backtracks to the root's
// second candidate, which an aliasing frame would have overwritten.
func TestLinearOwnsCandidates(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("plus_O_n")
	slate := func(path []string) []model.Candidate {
		switch {
		case len(path) == 0:
			return []model.Candidate{{Tactic: "simpl.", LogProb: -0.1}, {Tactic: "intros.", LogProb: -0.2}}
		case path[len(path)-1] == "simpl.":
			return []model.Candidate{{Tactic: "apply no_such_lemma_1.", LogProb: -1}, {Tactic: "apply no_such_lemma_2.", LogProb: -1}}
		case path[len(path)-1] == "intros.":
			return []model.Candidate{{Tactic: "reflexivity.", LogProb: -0.1}}
		}
		return nil
	}
	fresh := Linear(Config{Env: env, Stmt: th.Stmt, Propose: func(_ *tactic.State, path []string) []model.Candidate {
		return slate(path)
	}})
	if fresh.Status != Proved || fresh.Expanded != 3 || fresh.InvalidRejected != 2 {
		t.Fatalf("fresh slices searched %+v; the test needs the simpl. branch to dead-end before intros. proves", fresh)
	}
	buf := make([]model.Candidate, 0, 8)
	reused := Linear(Config{Env: env, Stmt: th.Stmt, Propose: func(_ *tactic.State, path []string) []model.Candidate {
		buf = append(buf[:0], slate(path)...)
		return buf
	}})
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("a reused buffer searched %+v, fresh slices %+v", reused, fresh)
	}
}

func TestProofsAreReplayable(t *testing.T) {
	env, c := loadEnv(t)
	th, _ := c.TheoremNamed("app_nil_r")
	steps := []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}
	i := 0
	res := BestFirst(Config{
		Env:  env,
		Stmt: th.Stmt,
		Propose: func(st *tactic.State, path []string) []model.Candidate {
			if i >= len(steps) {
				return nil
			}
			cnd := model.Candidate{Tactic: steps[i], LogProb: -0.1}
			i++
			return []model.Candidate{cnd}
		},
	})
	if res.Status != Proved {
		t.Fatal(res.Status)
	}
	// The returned proof must independently check.
	script := ""
	for _, s := range res.Proof {
		script += s + " "
	}
	if err := tactic.CheckProof(env, th.Stmt, script); err != nil {
		t.Fatalf("returned proof does not replay: %v", err)
	}
}

// modelProposer is the simulated model as the eval layer drives it: a
// stateful proposer whose every query draws from one seeded RNG, so a slate
// depends on how many queries came before it. Build a fresh one per search;
// lt is a lemma table over c.Env, shared like a sweep's.
func modelProposer(c *corpus.Corpus, lt *model.LemmaTable, th *corpus.Theorem, prof model.Profile, seed int64) Proposer {
	pb := prompt.Builder{Corpus: c, Setting: prompt.Vanilla, HintSet: map[string]bool{}, Window: prof.ContextWindow}
	pr := pb.Build(th)
	ng := model.BuildNGram(pr)
	mdl := model.NewWithLemmas(prof, c.Env, lt)
	rng := rand.New(rand.NewSource(seed))
	return func(st *tactic.State, path []string) []model.Candidate {
		return mdl.Propose(pr, st, path, ng, rng)
	}
}

// atLimit derives a search's outcome at query limit limit from res, its
// outcome at a larger limit, by the Config.QueryLimit contract: res stands
// if it did not run out of fuel and used at most limit queries; otherwise
// the search runs out of fuel after limit queries.
func atLimit(res Result, limit int) Result {
	if res.Status != Fuelout && res.Queries <= limit {
		return Result{Status: res.Status, Queries: res.Queries, Proof: res.Proof}
	}
	return Result{Status: Fuelout, Queries: limit}
}

// TestQueryLimitOnlyStops checks the contract eval's outcome tier serves
// shorter budgets by: for every algorithm, the outcome at limit L derived
// from the outcome at 256 equals a direct search at L.
func TestQueryLimitOnlyStops(t *testing.T) {
	env, c := loadEnv(t)
	lt := model.NewLemmaTable(env)
	const top = 256
	for _, alg := range []struct {
		name   string
		search func(Config) Result
	}{{"best-first", BestFirst}, {"linear", Linear}, {"greedy", Greedy}} {
		statuses := map[Status]int{}
		for i, th := range c.Theorems[:20] {
			seed := int64(i) + 1
			run := func(limit int) Result {
				return alg.search(Config{Env: env, Stmt: th.Stmt, Propose: modelProposer(c, lt, th, model.GPT4oMini, seed), QueryLimit: limit})
			}
			full := run(top)
			statuses[full.Status]++
			for _, limit := range []int{1, 8, 32, 64, 128} {
				got := run(limit)
				got = Result{Status: got.Status, Queries: got.Queries, Proof: got.Proof}
				if want := atLimit(full, limit); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s at limit %d: direct %+v, derived from limit %d %+v",
						alg.name, th.Name, limit, got, top, want)
				}
			}
		}
		t.Logf("%s: outcomes at limit %d: %d proved, %d stuck, %d fuelout",
			alg.name, top, statuses[Proved], statuses[Stuck], statuses[Fuelout])
		if statuses[Proved] == 0 || statuses[Stuck]+statuses[Fuelout] == 0 {
			t.Errorf("%s: the slice needs both proved and failed searches", alg.name)
		}
	}
}
