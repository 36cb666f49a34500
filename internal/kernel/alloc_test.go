//go:build !race

// Allocation-regression tests for the search inner loop's kernel hot paths.
// testing.AllocsPerRun pins the steady state at exactly zero allocations;
// any new per-call allocation on these paths fails here long before it shows
// up as a benchmark regression. The file is excluded under -race because
// race instrumentation itself allocates.
package kernel

import "testing"

// TestAllocFreeInternHit: constructing a term the arena has already seen is
// a pure lookup — the variadic argument slices stay on the stack and the
// canonical node is returned without copying.
func TestAllocFreeInternHit(t *testing.T) {
	build := func() *Term {
		n := V("n")
		return A("mult", A("plus", n, A("S", A("O"))), A("S", n))
	}
	build() // warm: the first sighting populates the arena
	if avg := testing.AllocsPerRun(200, func() {
		if build() == nil {
			t.Fatal("nil term")
		}
	}); avg != 0 {
		t.Fatalf("intern-hit construction allocated %.2f/op, want 0", avg)
	}
}

// TestAllocFreeFullResolveScratch: resolving metavariables through a Scratch
// recycles the child-pointer buffers, and the rebuilt nodes are intern hits.
func TestAllocFreeFullResolveScratch(t *testing.T) {
	sc := &Scratch{}
	sub := Subst{"?a": A("O"), "?b": A("S", A("O"))}
	tm := A("plus", A("mult", V("?a"), V("n")), V("?b"))
	FullResolveS(tm, sub, sc) // warm: scratch freelists and arena entries
	if avg := testing.AllocsPerRun(200, func() {
		if FullResolveS(tm, sub, sc) == nil {
			t.Fatal("nil resolution")
		}
	}); avg != 0 {
		t.Fatalf("FullResolveS allocated %.2f/op, want 0", avg)
	}

	f := Impl(Pred("le", V("?a"), V("n")), Pred("le", V("?b"), A("S", V("n"))))
	FullResolveFormS(f, sub, sc)
	if avg := testing.AllocsPerRun(200, func() {
		if FullResolveFormS(f, sub, sc) == nil {
			t.Fatal("nil resolution")
		}
	}); avg != 0 {
		t.Fatalf("FullResolveFormS allocated %.2f/op, want 0", avg)
	}
}

// TestAllocFreeUnifyTrialReuse: a speculative unification round trip — take
// a trial substitution from the scratch, unify into it, hand it back —
// reuses one cleared map; re-inserting the same keys allocates nothing.
func TestAllocFreeUnifyTrialReuse(t *testing.T) {
	sc := &Scratch{}
	flex := map[string]bool{"?a": true, "?b": true}
	pat := A("plus", V("?a"), A("S", V("?b")))
	tm := A("plus", A("O"), A("S", V("n")))
	round := func() {
		trial := sc.TrialSubst()
		if !UnifyTerms(pat, tm, flex, trial) {
			t.Fatal("unification failed")
		}
		sc.PutSubst(trial)
	}
	round() // warm: first trip sizes the map's buckets
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("trial-subst round trip allocated %.2f/op, want 0", avg)
	}
}

// TestAllocFreeScratchBuffers: the Args/Cases freelist round trips are pure
// slice recycling once a buffer of sufficient capacity exists.
func TestAllocFreeScratchBuffers(t *testing.T) {
	sc := &Scratch{}
	sc.PutArgs(sc.Args(6))
	sc.PutCases(sc.Cases(3))
	if avg := testing.AllocsPerRun(200, func() {
		b := sc.Args(6)
		b[0] = nil
		sc.PutArgs(b)
		c := sc.Cases(3)
		c[0] = MatchCase{}
		sc.PutCases(c)
	}); avg != 0 {
		t.Fatalf("scratch buffer round trip allocated %.2f/op, want 0", avg)
	}
}

// TestAllocFreeNamesMemo: once a formula's free-name memo is filled,
// FreeNames and HasFreeVar read it without allocating, and FreshName
// allocates only the name it returns, however many candidates it probes.
func TestAllocFreeNamesMemo(t *testing.T) {
	f := Forall("m", Ty("nat"), Impl(Pred("le", V("n"), V("m")), Eq(V("k"), A("S", V("n")))))
	f.FreeNames() // warm: fills the memo
	if avg := testing.AllocsPerRun(200, func() {
		if len(f.FreeNames()) != 2 || !f.HasFreeVar("k") || f.HasFreeVar("m") {
			t.Fatal("wrong free names")
		}
	}); avg != 0 {
		t.Fatalf("FreeNames/HasFreeVar on a filled memo allocated %.2f/op, want 0", avg)
	}
	used := map[string]bool{"n": true, "n0": true, "n1": true, "n2": true, "n3": true}
	if avg := testing.AllocsPerRun(200, func() {
		delete(used, FreshName("n", used))
	}); avg != 1 {
		t.Fatalf("FreshName past four taken candidates allocated %.2f/op, want 1", avg)
	}
}
