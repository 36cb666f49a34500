package kernel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genTerm builds a random term over a small signature.
func genTerm(rng *rand.Rand, depth int) *Term {
	vars := []string{"x", "y", "z", "n", "l"}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return V(vars[rng.Intn(len(vars))])
		case 1:
			return A("O")
		default:
			return A("nil")
		}
	}
	switch rng.Intn(4) {
	case 0:
		return A("S", genTerm(rng, depth-1))
	case 1:
		return A("cons", genTerm(rng, depth-1), genTerm(rng, depth-1))
	case 2:
		return A("plus", genTerm(rng, depth-1), genTerm(rng, depth-1))
	default:
		return A("app", genTerm(rng, depth-1), genTerm(rng, depth-1))
	}
}

// termValue lets testing/quick generate random terms.
type termValue struct{ T *Term }

func (termValue) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(termValue{T: genTerm(rng, 4)})
}

func TestNatLitRoundTrip(t *testing.T) {
	for n := 0; n < 50; n++ {
		got, ok := NatLit(n).AsNat()
		if !ok || got != n {
			t.Fatalf("NatLit(%d) round-trip gave %d, %v", n, got, ok)
		}
	}
	if _, ok := V("x").AsNat(); ok {
		t.Fatal("variable decoded as numeral")
	}
}

func TestTermEqualReflexive(t *testing.T) {
	f := func(v termValue) bool { return v.T.Equal(v.T) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Substituting a fresh variable and then substituting it back is identity.
func TestSubstRoundTrip(t *testing.T) {
	f := func(v termValue) bool {
		renamed := v.T.ApplySubst(Subst{"x": V("fresh_q")})
		back := renamed.ApplySubst(Subst{"fresh_q": V("x")})
		return back.Equal(v.T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Substitution for a variable that does not occur is identity.
func TestSubstAbsentVar(t *testing.T) {
	f := func(v termValue) bool {
		return v.T.ApplySubst(Subst{"absent_v": NatLit(3)}).Equal(v.T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// After substituting t for x, x no longer occurs free (when t avoids x).
func TestSubstEliminatesVar(t *testing.T) {
	f := func(v termValue) bool {
		out := v.T.ApplySubst(Subst{"x": A("O")})
		return !out.HasVar("x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceAllCount(t *testing.T) {
	tm := A("plus", V("x"), A("plus", V("x"), V("y")))
	out, n := tm.ReplaceAll(V("x"), A("O"))
	if n != 2 {
		t.Fatalf("expected 2 replacements, got %d", n)
	}
	if out.HasVar("x") {
		t.Fatal("x survived ReplaceAll")
	}

	// ReplaceAllForm replaces outside binders only: the quantified x stays,
	// a quantified formula comes back as itself with a count of 0, and so
	// does a formula without the term.
	q := Forall("z", Ty("nat"), Eq(V("x"), V("z")))
	f := And(Pred("P", V("x"), V("x")), Impl(Not(Eq(V("x"), V("y"))), q))
	want := And(Pred("P", A("O"), A("O")), Impl(Not(Eq(A("O"), V("y"))), q))
	if got, n := ReplaceAllForm(f, V("x"), A("O")); n != 3 || got != want {
		t.Fatalf("ReplaceAllForm = %s (%d replacements), want %s (3)", got, n, want)
	}
	if got, n := ReplaceAllForm(q, V("x"), A("O")); n != 0 || got != q {
		t.Fatalf("ReplaceAllForm under a binder = %s (%d replacements)", got, n)
	}
	if got, n := ReplaceAllForm(f, V("w"), A("O")); n != 0 || got != f {
		t.Fatalf("ReplaceAllForm of an absent term = %s (%d replacements)", got, n)
	}
}

func TestMatchCaptureAvoidance(t *testing.T) {
	// match n with | O => m | S p => S (plus p m) end, substituting m := p
	// must rename the pattern binder, not capture.
	body := NewMatch(V("n"), []MatchCase{
		{Pat: A("O"), RHS: V("m")},
		{Pat: A("S", V("p")), RHS: A("S", A("plus", V("p"), V("m")))},
	})
	out := body.ApplySubst(Subst{"m": V("p")})
	// The S-case RHS must now reference both the renamed binder and the
	// free p; they must be distinct variables.
	c := out.Match.Cases[1]
	binder := c.Pat.Args[0].Var
	if binder == "p" {
		t.Fatalf("pattern binder not renamed: %s", out)
	}
	if !c.RHS.HasVar("p") {
		t.Fatalf("free p lost: %s", out)
	}
}

func TestFreshNameCoqStyle(t *testing.T) {
	used := map[string]bool{"m": true, "m1": true, "m2": true}
	if got := FreshName("m1", used); got != "m3" {
		t.Fatalf("FreshName(m1) = %s, want m3", got)
	}
	used2 := map[string]bool{"H": true}
	if got := FreshName("H", used2); got != "H0" {
		t.Fatalf("FreshName(H) = %s, want H0", got)
	}
	used3 := map[string]bool{}
	if got := FreshName("x", used3); got != "x" {
		t.Fatalf("FreshName(x) = %s, want x", got)
	}
}

func TestStringPrintsInfix(t *testing.T) {
	tm := A("plus", NatLit(1), V("n"))
	if got := tm.String(); got != "1 + n" {
		t.Fatalf("got %q", got)
	}
	lst := ListLit(NatLit(1), NatLit(2))
	if got := lst.String(); got != "1 :: 2 :: nil" && got != "(1 :: (2 :: nil))" {
		t.Logf("list prints as %q", got)
	}
}

func TestSizePositive(t *testing.T) {
	f := func(v termValue) bool { return v.T.Size() > 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
