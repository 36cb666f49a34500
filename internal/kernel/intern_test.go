package kernel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// internGenTerm builds a random term through the interning constructors. Small
// name pools force heavy sharing so the arena paths are exercised.
func internGenTerm(rng *rand.Rand, depth int) *Term {
	if depth <= 0 || rng.Intn(3) == 0 {
		return V(fmt.Sprintf("x%d", rng.Intn(4)))
	}
	switch rng.Intn(5) {
	case 0:
		return A(fmt.Sprintf("f%d", rng.Intn(3)))
	case 1:
		cases := []MatchCase{
			{Pat: A("O"), RHS: internGenTerm(rng, depth-1)},
			{Pat: A("S", V("p")), RHS: internGenTerm(rng, depth-1)},
		}
		return NewMatch(internGenTerm(rng, depth-1), cases)
	default:
		n := 1 + rng.Intn(2)
		args := make([]*Term, n)
		for i := range args {
			args[i] = internGenTerm(rng, depth-1)
		}
		return A(fmt.Sprintf("g%d", rng.Intn(3)), args...)
	}
}

func internGenForm(rng *rand.Rand, depth int) *Form {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return True()
		case 1:
			return Eq(internGenTerm(rng, 2), internGenTerm(rng, 2))
		default:
			return Pred(fmt.Sprintf("P%d", rng.Intn(3)), internGenTerm(rng, 2))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Not(internGenForm(rng, depth-1))
	case 1:
		return And(internGenForm(rng, depth-1), internGenForm(rng, depth-1))
	case 2:
		return Impl(internGenForm(rng, depth-1), internGenForm(rng, depth-1))
	case 3:
		return Forall(fmt.Sprintf("x%d", rng.Intn(4)), Ty("nat"), internGenForm(rng, depth-1))
	case 4:
		return Exists(fmt.Sprintf("x%d", rng.Intn(4)), Ty("nat"), internGenForm(rng, depth-1))
	default:
		return Eq(internGenTerm(rng, depth), internGenTerm(rng, depth))
	}
}

// refTermEqual is a structural walk over terms: the reference that pointer
// comparison in Term.Equal must agree with. It never short-cuts on pointer
// identity.
func refTermEqual(t, u *Term) bool {
	if t == nil || u == nil {
		return t == nil && u == nil
	}
	switch {
	case t.Var != "" || u.Var != "":
		return t.Var == u.Var
	case t.Match != nil || u.Match != nil:
		if t.Match == nil || u.Match == nil {
			return false
		}
		if !refTermEqual(t.Match.Scrut, u.Match.Scrut) || len(t.Match.Cases) != len(u.Match.Cases) {
			return false
		}
		for i := range t.Match.Cases {
			if !refTermEqual(t.Match.Cases[i].Pat, u.Match.Cases[i].Pat) ||
				!refTermEqual(t.Match.Cases[i].RHS, u.Match.Cases[i].RHS) {
				return false
			}
		}
		return true
	default:
		if t.Fun != u.Fun || len(t.Args) != len(u.Args) {
			return false
		}
		for i := range t.Args {
			if !refTermEqual(t.Args[i], u.Args[i]) {
				return false
			}
		}
		return true
	}
}

// refTypeEqual is refTermEqual for types.
func refTypeEqual(a, b *Type) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.TVar != b.TVar || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !refTypeEqual(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// rebuildReversed reconstructs t through the constructors, building the
// children of every node last-to-first (match cases included), so the copy
// shares no construction history with t.
func rebuildReversed(t *Term) *Term {
	switch {
	case t.Var != "":
		return V(t.Var)
	case t.Match != nil:
		cases := make([]MatchCase, len(t.Match.Cases))
		for i := len(cases) - 1; i >= 0; i-- {
			rhs := rebuildReversed(t.Match.Cases[i].RHS)
			cases[i] = MatchCase{Pat: rebuildReversed(t.Match.Cases[i].Pat), RHS: rhs}
		}
		return NewMatch(rebuildReversed(t.Match.Scrut), cases)
	default:
		args := make([]*Term, len(t.Args))
		for i := len(args) - 1; i >= 0; i-- {
			args[i] = rebuildReversed(t.Args[i])
		}
		return A(t.Fun, args...)
	}
}

func internGenType(rng *rand.Rand, depth int) *Type {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return TyVar(fmt.Sprintf("T%d", rng.Intn(2)))
		}
		return Ty([]string{"nat", "bool"}[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		return Ty("list", internGenType(rng, depth-1))
	}
	return Ty("prod", internGenType(rng, depth-1), internGenType(rng, depth-1))
}

// TestEqualMatchesStructuralWalk: on random term and type pairs, pointer
// equality agrees with the structural walk, and a term rebuilt in reverse
// construction order is the same pointer.
func TestEqualMatchesStructuralWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eqTerms, eqTypes := 0, 0
	for i := 0; i < 4000; i++ {
		a, b := internGenTerm(rng, 3), internGenTerm(rng, 3)
		if got, want := a.Equal(b), refTermEqual(a, b); got != want {
			t.Fatalf("Equal(%s, %s) = %v, structural walk says %v", a, b, got, want)
		}
		if a.Equal(b) {
			eqTerms++
		}
		if r := rebuildReversed(a); r != a || !refTermEqual(r, a) {
			t.Fatalf("rebuilt %s is not the canonical pointer", a)
		}
		x, y := internGenType(rng, 3), internGenType(rng, 3)
		if got, want := x.Equal(y), refTypeEqual(x, y); got != want {
			t.Fatalf("Equal(%s, %s) = %v, structural walk says %v", x, y, got, want)
		}
		if x.Equal(y) {
			eqTypes++
		}
		if r := MkType(x.Name, append([]*Type(nil), x.Args...), x.TVar); r != x {
			t.Fatalf("rebuilt type %s is not the canonical pointer", x)
		}
	}
	if eqTerms == 0 || eqTerms == 4000 || eqTypes == 0 || eqTypes == 4000 {
		t.Fatalf("degenerate pairs: %d equal term pairs, %d equal type pairs of 4000", eqTerms, eqTypes)
	}
	var nilTerm *Term
	var nilType *Type
	if !nilTerm.Equal(nil) || nilTerm.Equal(V("x")) || V("x").Equal(nil) ||
		!nilType.Equal(nil) || nilType.Equal(Ty("nat")) || Ty("nat").Equal(nil) {
		t.Fatal("nil handling of Equal changed")
	}
}

// TestInternDedup: structurally equal constructions collapse to one
// pointer; equality is pointer comparison.
func TestInternDedup(t *testing.T) {
	a := A("plus", V("n"), A("S", A("O")))
	b := A("plus", V("n"), A("S", A("O")))
	if a != b {
		t.Fatalf("structurally equal interned terms have distinct pointers")
	}
	f := Impl(Eq(a, V("m")), Pred("le", a, b))
	g := Impl(Eq(b, V("m")), Pred("le", b, a))
	if f != g {
		t.Fatalf("structurally equal interned forms have distinct pointers")
	}
	ty1, ty2 := Ty("list", Ty("nat")), Ty("list", Ty("nat"))
	if ty1 != ty2 {
		t.Fatalf("structurally equal interned types have distinct pointers")
	}
}

// TestInternConcurrent hammers the arena from many goroutines (meaningful
// under -race): all builders of the same structure must get one pointer.
func TestInternConcurrent(t *testing.T) {
	const workers = 16
	out := make([]*Term, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(7))
			out[w] = internGenTerm(rng, 5)
			// Exercise the lazy key paths concurrently too.
			_ = out[w].HashKey()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if out[w] != out[0] {
			t.Fatalf("worker %d interned a different pointer for the same structure", w)
		}
	}
}

// TestFingerprintKeyMatchesTextual pins the byte stream the key walk
// hashes: for one formula per branch of the walk, the key is the hash of
// the canonical text spelled out here. A change to the walk that changes
// any key (and with it every duplicate-state decision) fails here. A
// nullary constant is quoted, so it and a variable of its name differ.
func TestFingerprintKeyMatchesTextual(t *testing.T) {
	cases := []struct {
		f    *Form
		text string
	}{
		{True(), "T"},
		{False(), "F"},
		{Eq(V("x"), A("O")), "(= x 'O)"},
		{Eq(V("c"), A("c")), "(= c 'c)"}, // a variable and a constant of one name
		{Pred("le", V("n"), A("S", A("O"))), "(P le n (S 'O))"},
		{Not(True()), "(~ T)"},
		{And(True(), False()), "(& T F)"},
		{Or(True(), False()), "(| T F)"},
		{Impl(True(), False()), "(> T F)"},
		{Iff(True(), False()), "(<> T F)"},
		{Forall("n", Ty("nat"), Exists("m", Ty("nat"), Eq(V("n"), V("m")))), "(Ab1 (Eb2 (= b1 b2)))"},
		{Eq(NewMatch(V("l"), []MatchCase{
			{Pat: A("nil"), RHS: A("O")},
			{Pat: A("cons", V("x"), V("t")), RHS: A("S", V("x"))},
		}), A("O")), "(= (m l ['nil 'O] [(cons mb1 mb2) (S mb1)]) 'O)"},
	}
	for _, tc := range cases {
		h := newFPHash()
		h.WriteString(tc.text)
		if got := tc.f.FingerprintKey(); got != [2]uint64{h.a, h.b} {
			t.Errorf("%s: key %x is not the hash of %q", tc.f, got, tc.text)
		}
	}
}

// TestFingerprintKeySeeded: seeding the walk's renaming map is equivalent
// to substituting fresh variables first — including under binders that
// shadow or could capture the seeded names.
func TestFingerprintKeySeeded(t *testing.T) {
	cases := []*Form{
		Pred("le", V("n"), V("m")),
		Forall("n", Ty("nat"), Pred("le", V("n"), V("m"))),   // binder shadows a renamed free var
		Forall("v0", Ty("nat"), Pred("le", V("v0"), V("n"))), // binder equals a replacement name
		Impl(Eq(V("n"), A("O")), Exists("k", Ty("nat"), Eq(V("m"), V("k")))),
	}
	ren := map[string]string{"n": "v0", "m": "v1"}
	sub := Subst{"n": V("v0"), "m": V("v1")}
	for i, f := range cases {
		got := FingerprintKeySeeded(f, ren)
		want := f.SubstTerm(sub).FingerprintKey()
		if got != want {
			t.Fatalf("case %d: seeded key differs from subst-then-key", i)
		}
	}
	if len(ren) != 2 || ren["n"] != "v0" || ren["m"] != "v1" {
		t.Fatalf("seed map not restored: %v", ren)
	}
}

// TestSubstFastPathIdentity: a substitution whose domain cannot occur in
// the term returns the identical pointer, and the bloom signature never
// causes a wrong skip (cross-checked against HasVar).
func TestSubstFastPathIdentity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tm := internGenTerm(rng, 4)
		if got := tm.ApplySubst(Subst{"zz_absent": A("O")}); got != tm {
			t.Fatalf("seed %d: absent-var substitution did not return the same pointer", seed)
		}
		sub := Subst{"x1": A("S", A("O"))}
		got := tm.ApplySubst(sub)
		if !tm.HasVar("x1") && got != tm {
			t.Fatalf("seed %d: substitution copied a term it cannot touch", seed)
		}
		if tm.HasVar("x1") && got.HasVar("x1") {
			t.Fatalf("seed %d: substitution missed an occurrence", seed)
		}
	}
	if f := Pred("P", V("a")); f.SubstTerm(Subst{}) != f {
		t.Fatalf("empty substitution did not return the same formula pointer")
	}

	// Form.Map is copy-on-write: when no callback changes its argument it
	// returns f itself and calls no constructor, so the arena's counters
	// stay put (an interned rebuild would also return f, but as a hit).
	same := func(t *Term) *Term { return t }
	var walk func(*Form) *Form
	walk = func(g *Form) *Form { return g.Map(same, walk, nil) }
	forms := []*Form{Iff(Or(Pred("P", V("a"), V("b")), False()), Exists("y", Ty("nat"), Not(Eq(V("y"), V("a")))))}
	for seed := int64(0); seed < 40; seed++ {
		forms = append(forms, internGenForm(rand.New(rand.NewSource(seed)), 4))
	}
	for i, f := range forms {
		hits, misses := InternStats()
		if walk(f) != f {
			t.Fatalf("form %d: identity Map did not return the same pointer", i)
		}
		if h, m := InternStats(); h != hits || m != misses {
			t.Fatalf("form %d: identity Map called a constructor", i)
		}
	}
}

// FuzzIntern feeds arbitrary name/shape choices through the interning
// constructors, checking the core invariants on every input.
func FuzzIntern(f *testing.F) {
	f.Add("x", "f", uint8(0))
	f.Add("", "plus", uint8(3))
	f.Add("v0", "S", uint8(7))
	f.Add("x)|(P y", "⊢", uint8(5)) // separator bytes in names must stay safe
	f.Fuzz(func(t *testing.T, v, fn string, shape uint8) {
		tm := A(fn, V(v), A(fn), NewMatch(V(v), []MatchCase{{Pat: A("O"), RHS: V(v)}}))
		if int(shape)&1 == 1 {
			tm = A("wrap", tm, tm)
		}
		dup := A(tm.Fun, tm.Args...)
		if dup != tm {
			t.Fatalf("re-construction of an interned term gave a new pointer")
		}
		if tm.HashKey() == (A("other", V(v)).HashKey()) {
			t.Fatalf("distinct terms share a 128-bit hash key")
		}
		fm := Forall(v, Ty("nat"), Eq(tm, V(v)))
		if fm.FingerprintKey() != Forall(v, Ty("nat"), Eq(tm, V(v))).FingerprintKey() {
			t.Fatalf("equal forms disagree on FingerprintKey")
		}
	})
}
