package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testEnv builds a small environment with nat, list, plus, app.
func testEnv(t testing.TB) *Env {
	env := NewEnv()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(env.AddDatatype(&Datatype{Name: "nat", Constructors: []Constructor{
		{Name: "O"},
		{Name: "S", ArgTypes: []*Type{Ty("nat")}},
	}}))
	must(env.AddDatatype(&Datatype{Name: "list", Params: []string{"A"}, Constructors: []Constructor{
		{Name: "nil"},
		{Name: "cons", ArgTypes: []*Type{TyVar("A"), Ty("list", TyVar("A"))}},
	}}))
	must(env.AddFun(&FunDef{
		Name: "plus", Recursive: true,
		Params:  []TypedVar{{Name: "n", Type: Ty("nat")}, {Name: "m", Type: Ty("nat")}},
		RetType: Ty("nat"),
		Body: NewMatch(V("n"), []MatchCase{
			{Pat: A("O"), RHS: V("m")},
			{Pat: A("S", V("p")), RHS: A("S", A("plus", V("p"), V("m")))},
		}),
	}))
	must(env.AddFun(&FunDef{
		Name: "app", Recursive: true,
		Params:  []TypedVar{{Name: "l1", Type: Ty("list", TyVar("A"))}, {Name: "l2", Type: Ty("list", TyVar("A"))}},
		RetType: Ty("list", TyVar("A")),
		Body: NewMatch(V("l1"), []MatchCase{
			{Pat: A("nil"), RHS: V("l2")},
			{Pat: A("cons", V("x"), V("t")), RHS: A("cons", V("x"), A("app", V("t"), V("l2")))},
		}),
	}))
	return env
}

// plus computes correctly on numerals (ground evaluation correctness).
func TestEvalPlusGround(t *testing.T) {
	env := testEnv(t)
	ev := NewEvaluator(env)
	f := func(a, b uint8) bool {
		x, y := int(a%30), int(b%30)
		out, err := ev.Normalize(A("plus", NatLit(x), NatLit(y)))
		if err != nil {
			return false
		}
		n, ok := out.AsNat()
		return ok && n == x+y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Normalization is idempotent.
func TestEvalIdempotent(t *testing.T) {
	env := testEnv(t)
	f := func(v termValue) bool {
		ev := NewEvaluator(env)
		once, err := ev.Normalize(v.T)
		if err != nil {
			return true // fuel exhaustion is acceptable; just not a crash
		}
		ev2 := NewEvaluator(env)
		twice, err := ev2.Normalize(once)
		if err != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The simpl guard: a stuck fixpoint application does not unfold.
func TestEvalStuckFixpointRollsBack(t *testing.T) {
	env := testEnv(t)
	ev := NewEvaluator(env)
	out, err := ev.Normalize(A("plus", V("n"), V("m")))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(A("plus", V("n"), V("m"))) {
		t.Fatalf("stuck plus unfolded to %s", out)
	}
	// But a constructor-headed scrutinee reduces even when the recursive
	// call stays stuck.
	out, err = ev.Normalize(A("plus", A("S", V("n")), V("m")))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(A("S", A("plus", V("n"), V("m")))) {
		t.Fatalf("S-headed plus gave %s", out)
	}
}

func TestUnifyBasics(t *testing.T) {
	flex := map[string]bool{"?x": true, "?y": true}
	sub := Subst{}
	if !UnifyTerms(A("plus", V("?x"), V("?y")), A("plus", NatLit(1), V("n")), flex, sub) {
		t.Fatal("unification failed")
	}
	if !FullResolve(V("?x"), sub).Equal(NatLit(1)) {
		t.Fatalf("?x = %s", FullResolve(V("?x"), sub))
	}
	if !FullResolve(V("?y"), sub).Equal(V("n")) {
		t.Fatalf("?y = %s", FullResolve(V("?y"), sub))
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	flex := map[string]bool{"?x": true}
	sub := Subst{}
	if UnifyTerms(V("?x"), A("S", V("?x")), flex, sub) {
		t.Fatal("occurs check missed")
	}
}

func TestUnifyRigidMismatch(t *testing.T) {
	sub := Subst{}
	if UnifyTerms(V("a"), V("b"), map[string]bool{}, sub) {
		t.Fatal("distinct rigid variables unified")
	}
	if UnifyTerms(A("O"), A("S", A("O")), map[string]bool{}, sub) {
		t.Fatal("distinct constructors unified")
	}
}

// A unifier, applied to both sides, makes them equal (soundness).
func TestUnifierIsSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		ground := genTerm(rng, 3).ApplySubst(Subst{
			"x": NatLit(1), "y": A("O"), "z": A("nil"), "n": NatLit(2), "l": A("nil"),
		})
		// Abstract two random positions into metavariables.
		pat := ground.ApplySubst(Subst{})
		flex := map[string]bool{"?m1": true, "?m2": true}
		sub := Subst{}
		if !UnifyTerms(pat, ground, flex, sub) {
			t.Fatalf("self-unification failed for %s", ground)
		}
		if !FullResolve(pat, sub).Equal(FullResolve(ground, sub)) {
			t.Fatalf("unifier not a solution for %s", ground)
		}
	}
}

func TestFindInstanceForm(t *testing.T) {
	// Find plus ?a O inside a formula and confirm the matched subterm.
	flex := map[string]bool{"?a": true}
	f := Eq(A("S", A("plus", V("k"), A("O"))), V("k"))
	inst, sub, ok := FindInstanceForm(A("plus", V("?a"), A("O")), f, flex, Subst{})
	if !ok {
		t.Fatal("instance not found")
	}
	if !inst.Equal(A("plus", V("k"), A("O"))) {
		t.Fatalf("instance = %s", inst)
	}
	if !FullResolve(V("?a"), sub).Equal(V("k")) {
		t.Fatalf("?a = %s", FullResolve(V("?a"), sub))
	}
}

func TestUnfoldDef(t *testing.T) {
	env := testEnv(t)
	ev := NewEvaluator(env)
	f := Eq(A("plus", V("n"), V("m")), V("k"))
	out, changed := ev.UnfoldDef("plus", f)
	if !changed {
		t.Fatal("unfold made no progress")
	}
	if out.T1.Match == nil {
		t.Fatalf("expected exposed match, got %s", out.T1)
	}
}
