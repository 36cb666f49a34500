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

// TestInternObservationalEquivalence is the central parity property: the
// same random construction with interning on and off must agree on every
// observable — rendering, textual fingerprints, fingerprint keys, equality,
// and unification — because interning only changes pointer coincidences.
func TestInternObservationalEquivalence(t *testing.T) {
	defer SetInterning(true)
	for seed := int64(0); seed < 40; seed++ {
		SetInterning(true)
		fOn := internGenForm(rand.New(rand.NewSource(seed)), 4)
		SetInterning(false)
		fOff := internGenForm(rand.New(rand.NewSource(seed)), 4)
		SetInterning(true)

		if !fOn.Equal(fOff) || !fOff.Equal(fOn) {
			t.Fatalf("seed %d: interned and plain construction not Equal", seed)
		}
		if fOn.String() != fOff.String() {
			t.Fatalf("seed %d: renderings differ:\n%s\n%s", seed, fOn, fOff)
		}
		if fOn.Fingerprint() != fOff.Fingerprint() {
			t.Fatalf("seed %d: textual fingerprints differ", seed)
		}
		if fOn.FingerprintKey() != fOff.FingerprintKey() {
			t.Fatalf("seed %d: fingerprint keys differ", seed)
		}
		if fOn.HashKey() != fOff.HashKey() {
			t.Fatalf("seed %d: strict hash keys differ", seed)
		}

		// The same substitution applied to both must agree observably.
		sub := Subst{"x0": A("S", A("O")), "x2": V("y")}
		sOn, sOff := fOn.SubstTerm(sub), fOff.SubstTerm(sub)
		if !sOn.Equal(sOff) || sOn.Fingerprint() != sOff.Fingerprint() {
			t.Fatalf("seed %d: SubstTerm diverges between interned and plain", seed)
		}
	}
}

// TestInternDedup: with interning on, structurally equal constructions
// collapse to one pointer; equality is pointer comparison.
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

// TestFingerprintKeyMatchesTextual: the key is a hash of exactly the bytes
// of the textual fingerprint, so equal fingerprints force equal keys and
// (for the generator's corpus) distinct fingerprints give distinct keys.
func TestFingerprintKeyMatchesTextual(t *testing.T) {
	byFP := map[string][2]uint64{}
	for seed := int64(0); seed < 60; seed++ {
		f := internGenForm(rand.New(rand.NewSource(seed)), 4)
		fp, key := f.Fingerprint(), f.FingerprintKey()
		h := newFPHash()
		h.WriteString(fp) //nolint:errcheck
		if [2]uint64{h.a, h.b} != key {
			t.Fatalf("seed %d: FingerprintKey is not the hash of the textual fingerprint", seed)
		}
		if prev, ok := byFP[fp]; ok && prev != key {
			t.Fatalf("seed %d: same fingerprint, different keys", seed)
		}
		byFP[fp] = key
	}
	keys := map[[2]uint64]string{}
	for fp, k := range byFP {
		if other, ok := keys[k]; ok && other != fp {
			t.Fatalf("key collision between %q and %q", fp, other)
		}
		keys[k] = fp
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
}

// TestRawLiteralFallback: raw struct literals (hash==0 sentinel) still
// compare, fingerprint, and key correctly against constructed nodes.
func TestRawLiteralFallback(t *testing.T) {
	raw := &Term{Fun: "plus", Args: []*Term{{Var: "n"}, {Fun: "O"}}}
	built := A("plus", V("n"), A("O"))
	if !raw.Equal(built) || !built.Equal(raw) {
		t.Fatalf("raw literal and constructed term not Equal")
	}
	if raw.HashKey() != built.HashKey() {
		t.Fatalf("raw literal and constructed term have different hash keys")
	}
	rawF := &Form{Kind: FEq, T1: raw, T2: raw}
	builtF := Eq(built, built)
	if !rawF.Equal(builtF) || rawF.FingerprintKey() != builtF.FingerprintKey() {
		t.Fatalf("raw literal and constructed form disagree")
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
		h := newFPHash()
		h.WriteString(fm.Fingerprint()) //nolint:errcheck
		if [2]uint64{h.a, h.b} != fm.FingerprintKey() {
			t.Fatalf("FingerprintKey is not the hash of the textual fingerprint")
		}
	})
}
