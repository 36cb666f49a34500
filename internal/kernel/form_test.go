package kernel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func genForm(rng *rand.Rand, depth int) *Form {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return True()
		case 1:
			return Eq(genTerm(rng, 2), genTerm(rng, 2))
		case 2:
			return Pred("le", genTerm(rng, 2), genTerm(rng, 2))
		default:
			return Pred("In", genTerm(rng, 2), genTerm(rng, 2))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return And(genForm(rng, depth-1), genForm(rng, depth-1))
	case 1:
		return Or(genForm(rng, depth-1), genForm(rng, depth-1))
	case 2:
		return Impl(genForm(rng, depth-1), genForm(rng, depth-1))
	case 3:
		return Not(genForm(rng, depth-1))
	case 4:
		return Forall("x", Ty("nat"), genForm(rng, depth-1))
	default:
		return Exists("y", Ty("nat"), genForm(rng, depth-1))
	}
}

type formValue struct{ F *Form }

func (formValue) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(formValue{F: genForm(rng, 4)})
}

// The fingerprint key is stable and reflexive.
func TestFingerprintStable(t *testing.T) {
	f := func(v formValue) bool { return v.F.FingerprintKey() == v.F.FingerprintKey() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Alpha-renaming a binder does not change the fingerprint key.
func TestFingerprintAlphaInsensitive(t *testing.T) {
	f := func(v formValue) bool {
		a := Forall("a", Ty("nat"), v.F.Subst1("x", V("a")))
		b := Forall("b", Ty("nat"), v.F.Subst1("x", V("b")))
		return a.FingerprintKey() == b.FingerprintKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Distinct free variables yield distinct fingerprint keys.
func TestFingerprintFreeVarsMatter(t *testing.T) {
	a := Eq(V("x"), A("O"))
	b := Eq(V("y"), A("O"))
	if a.FingerprintKey() == b.FingerprintKey() {
		t.Fatal("free variables conflated")
	}
}

// Capture avoidance: substituting a term mentioning the binder renames it.
func TestFormSubstCapture(t *testing.T) {
	// forall y, x = y, substituting x := y must NOT produce forall y, y = y.
	f := Forall("y", Ty("nat"), Eq(V("x"), V("y")))
	out := f.Subst1("x", V("y"))
	if out.Binder == "y" {
		t.Fatalf("binder not renamed: %s", out)
	}
	// The matrix must equate the free y with the fresh binder.
	if !out.Body.T1.Equal(V("y")) {
		t.Fatalf("free y lost: %s", out)
	}
	if out.Body.T2.Equal(V("y")) {
		t.Fatalf("bound occurrence captured: %s", out)
	}
}

func TestStripForallsImpls(t *testing.T) {
	f := Forall("x", Ty("nat"), Forall("y", Ty("nat"),
		Impl(Pred("le", V("x"), V("y")), Eq(V("x"), V("y")))))
	binders, matrix := f.StripForalls()
	if len(binders) != 2 || binders[0].Name != "x" {
		t.Fatalf("binders: %v", binders)
	}
	prems, concl := matrix.StripImpls()
	if len(prems) != 1 || concl.Kind != FEq {
		t.Fatalf("matrix: %v %v", prems, concl)
	}
}

func TestFreeVarsQuantified(t *testing.T) {
	f := Forall("x", Ty("nat"), Eq(V("x"), V("y")))
	fv := f.FreeVars()
	if fv["x"] || !fv["y"] {
		t.Fatalf("free vars: %v", fv)
	}
}

// Substitution then free-variable check: the substituted variable is gone.
func TestFormSubstEliminates(t *testing.T) {
	f := func(v formValue) bool {
		out := v.F.Subst1("x", A("O"))
		return !out.FreeVars()["x"]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImplChain(t *testing.T) {
	f := ImplChain([]*Form{True(), False()}, Eq(A("O"), A("O")))
	prems, concl := f.StripImpls()
	if len(prems) != 2 || concl.Kind != FEq {
		t.Fatalf("chain: %v %v", prems, concl)
	}
}

func TestFormStringParses(t *testing.T) {
	// Rendering is exercised heavily elsewhere; sanity-check shapes here.
	f := Iff(And(True(), False()), Or(Not(True()), Eq(V("x"), V("y"))))
	s := f.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
}
