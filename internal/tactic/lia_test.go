package tactic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// TestLiaMatchesReference checks that omega reaches the outcome of its
// reference (the map-based implementation it replaced) on random
// arithmetic goals, on goals built to cross the Fourier–Motzkin cut-offs,
// and on every goal reached while replaying the corpus proofs.
func TestLiaMatchesReference(t *testing.T) {
	check := func(what string, g *tactic.Goal) string {
		t.Helper()
		class, err := tactic.CheckLia(g)
		if err != nil {
			t.Fatalf("%s: %v\n%s", what, err, goalText(g))
		}
		return class
	}

	rng := rand.New(rand.NewSource(38))
	classes := map[string]int{}
	for i := 0; i < 3000; i++ {
		classes[check(fmt.Sprintf("random goal %d", i), randomLiaGoal(rng))]++
	}
	t.Logf("random goals: %v", classes)
	for _, c := range []string{"proved", "not linear", "fails"} {
		if classes[c] < 100 {
			t.Errorf("only %d random goals are %q", classes[c], c)
		}
	}

	// The cut-offs are live: each pair below differs only in size, and the
	// reference proves the smaller goal and gives up on the larger one.
	for _, tc := range []struct {
		what string
		g    *tactic.Goal
		want string
	}{
		{"24-atom chain", chainGoal(24), "proved"},
		{"25-atom chain", chainGoal(25), "fails"},
		{"20x20 elimination", blowupGoal(20), "proved"},
		{"25x25 elimination", blowupGoal(25), "fails"},
		// The atom order decides which of these two cross maxCons.
		{"mult atom bounded 25x25", orderGoal(kernel.A("mult", kernel.V("x"), kernel.V("y"))), "proved"},
		{"minus atom bounded 25x25", orderGoal(kernel.A("minus", kernel.V("x"), kernel.V("y"))), "fails"},
	} {
		if got := check(tc.what, tc.g); got != tc.want {
			t.Errorf("%s: the reference says %s, want %s", tc.what, got, tc.want)
		}
	}

	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	goals := 0
	for _, file := range c.Files {
		for _, it := range c.Items[file] {
			if it.Kind != corpus.ItemLemma {
				continue
			}
			script, err := tactic.ParseScript(it.Proof)
			if err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
			st := tactic.NewState(c.EnvBefore(it.Name), it.Stmt)
			for _, e := range script {
				for _, g := range st.Goals {
					check(it.Name, g)
					goals++
				}
				if st, err = tactic.Apply(st, e); err != nil {
					t.Fatalf("%s: replaying %s: %v", it.Name, tactic.ExprString(e), err)
				}
			}
		}
	}
	if goals < 1000 {
		t.Fatalf("replayed only %d corpus goals", goals)
	}
}

func goalText(g *tactic.Goal) string {
	s := ""
	for _, h := range g.Hyps {
		s += h.Name + " : " + h.Form.String() + "\n"
	}
	return s + "⊢ " + g.Concl.String()
}

// randomLiaGoal draws a goal over 2–6 nat variables: hypotheses and a
// conclusion built from numerals, S, plus, minus and mult (by a constant and
// of two variables) under le, lt, =, <>, ~ and /\, with some hypotheses
// omega must skip.
func randomLiaGoal(rng *rand.Rand) *tactic.Goal {
	vars := make([]*kernel.Term, 2+rng.Intn(5))
	for i := range vars {
		vars[i] = kernel.V(fmt.Sprintf("x%d", i))
	}
	var term func(depth int) *kernel.Term
	term = func(depth int) *kernel.Term {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(4) == 0 {
				return kernel.NatLit(rng.Intn(4))
			}
			return vars[rng.Intn(len(vars))]
		}
		switch rng.Intn(6) {
		case 0:
			return kernel.A("S", term(depth-1))
		case 1, 2:
			return kernel.A("plus", term(depth-1), term(depth-1))
		case 3:
			return kernel.A("minus", term(depth-1), term(depth-1))
		case 4:
			k := kernel.NatLit(rng.Intn(4))
			if rng.Intn(2) == 0 {
				return kernel.A("mult", k, term(depth-1))
			}
			return kernel.A("mult", term(depth-1), k)
		default:
			return kernel.A("mult", vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))])
		}
	}
	atom := func() *kernel.Form {
		a, b := term(2), term(2)
		switch rng.Intn(3) {
		case 0:
			return kernel.Pred("le", a, b)
		case 1:
			return kernel.Pred("lt", a, b)
		default:
			return kernel.Eq(a, b)
		}
	}
	var form func(depth int) *kernel.Form
	form = func(depth int) *kernel.Form {
		switch r := rng.Intn(10); {
		case depth > 0 && r == 0:
			return kernel.And(form(depth-1), form(depth-1))
		case r <= 2:
			return kernel.Not(atom())
		default:
			return atom()
		}
	}
	g := &tactic.Goal{}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		f := form(1)
		switch rng.Intn(8) {
		case 0:
			f = kernel.Pred("even", vars[rng.Intn(len(vars))])
		case 1:
			f = kernel.Or(atom(), atom())
		}
		g.Hyps = append(g.Hyps, tactic.Hyp{Name: fmt.Sprintf("H%d", i), Form: f})
	}
	switch rng.Intn(12) {
	case 0:
		g.Concl = kernel.False()
	case 1:
		g.Concl = kernel.Or(atom(), atom())
	default:
		g.Concl = form(1)
	}
	return g
}

// chainGoal is x0 <= x1 -> ... -> x(n-2) <= x(n-1) -> x0 <= x(n-1): true,
// over n atoms.
func chainGoal(n int) *tactic.Goal {
	x := func(i int) *kernel.Term { return kernel.V(fmt.Sprintf("x%d", i)) }
	g := &tactic.Goal{Concl: kernel.Pred("le", x(0), x(n-1))}
	for i := 0; i+1 < n; i++ {
		g.Hyps = append(g.Hyps, tactic.Hyp{Name: fmt.Sprintf("H%d", i), Form: kernel.Pred("le", x(i), x(i+1))})
	}
	return g
}

// blowupGoal bounds x from below by i*y and from above by z+j for n values
// each, then states S w <= v and v <= w. The contradiction lies in the last
// two atoms, and eliminating x first makes n*n distinct constraints.
func blowupGoal(n int) *tactic.Goal {
	x, y, z, v, w := kernel.V("x"), kernel.V("y"), kernel.V("z"), kernel.V("v"), kernel.V("w")
	g := &tactic.Goal{Concl: kernel.False()}
	hyp := func(f *kernel.Form) {
		g.Hyps = append(g.Hyps, tactic.Hyp{Name: fmt.Sprintf("H%d", len(g.Hyps)), Form: f})
	}
	for i := 1; i <= n; i++ {
		hyp(kernel.Pred("le", kernel.A("mult", kernel.NatLit(i), y), x))
	}
	for j := 0; j < n; j++ {
		hyp(kernel.Pred("le", x, kernel.A("plus", z, kernel.NatLit(j))))
	}
	hyp(kernel.Pred("le", kernel.A("S", w), v))
	hyp(kernel.Pred("le", v, w))
	return g
}

// orderGoal bounds a from below by i*x and from above by z+j for 25
// values each, then states S w <= v and v <= w. Eliminating x before a
// folds the lower bounds into one, and eliminating a first makes more
// than maxCons constraints. A mult atom gets its id after its operands, so
// x goes first; a minus atom gets its id before them, so it goes first.
func orderGoal(a *kernel.Term) *tactic.Goal {
	x, z, v, w := kernel.V("x"), kernel.V("z"), kernel.V("v"), kernel.V("w")
	g := &tactic.Goal{Concl: kernel.False()}
	hyp := func(f *kernel.Form) {
		g.Hyps = append(g.Hyps, tactic.Hyp{Name: fmt.Sprintf("H%d", len(g.Hyps)), Form: f})
	}
	for i := 1; i <= 25; i++ {
		hyp(kernel.Pred("le", kernel.A("mult", kernel.NatLit(i), x), a))
	}
	for j := 0; j < 25; j++ {
		hyp(kernel.Pred("le", a, kernel.A("plus", z, kernel.NatLit(j))))
	}
	hyp(kernel.Pred("le", kernel.A("S", w), v))
	hyp(kernel.Pred("le", v, w))
	return g
}
