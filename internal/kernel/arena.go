package kernel

import "strconv"

// Per-search scratch arena.
//
// A Scratch is carried by one search and recycles the transient buffers the
// substitution/unification inner loop would otherwise allocate per call:
// child-pointer slices built during copy-on-write walks, and trial
// substitution maps for speculative unification. It is safe to recycle these because the interning
// constructors copy argument slices on an arena miss (see intern.go):
// nothing a constructor returns can alias a scratch buffer, so a buffer
// handed back with PutArgs is provably unreachable from any node.
//
// Lifetime rules (DESIGN.md §13): canonical nodes live in shard-owned bump
// chunks and are immortal; anything built through the constructors may
// escape a search freely. Only the scratch buffers themselves must not
// escape, and the API makes that structural — callers release a buffer only
// after the constructor consuming it has returned.
//
// A Scratch is not safe for concurrent use. All methods are nil-receiver
// safe and fall back to plain, exact-length allocation, so code threads a
// *Scratch unconditionally and callers outside the search (CheckProof, for
// one) pass nil.
type Scratch struct {
	argBufs  [][]*Term
	substs   []Subst
	caseBufs [][]MatchCase
}

// maxFree bounds each freelist so a pathological search cannot pin
// unbounded memory in its scratch.
const maxFree = 64

// Args returns a length-n child-pointer buffer. Contents are unspecified;
// callers overwrite every slot.
func (sc *Scratch) Args(n int) []*Term {
	if sc == nil {
		return make([]*Term, n)
	}
	for i := len(sc.argBufs) - 1; i >= 0 && i >= len(sc.argBufs)-8; i-- {
		if cap(sc.argBufs[i]) >= n {
			b := sc.argBufs[i][:n]
			last := len(sc.argBufs) - 1
			sc.argBufs[i] = sc.argBufs[last]
			sc.argBufs[last] = nil
			sc.argBufs = sc.argBufs[:last]
			return b
		}
	}
	c := n
	if c < 8 {
		c = 8
	}
	return make([]*Term, n, c)
}

// PutArgs returns a buffer obtained from Args once no constructor argument
// references it (constructors copy on miss, so "after the call returns" is
// always safe).
func (sc *Scratch) PutArgs(b []*Term) {
	if sc == nil || cap(b) == 0 || len(sc.argBufs) >= maxFree {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = nil
	}
	sc.argBufs = append(sc.argBufs, b[:0])
}

// Cases returns a length-n match-case buffer (same contract as Args).
func (sc *Scratch) Cases(n int) []MatchCase {
	if sc == nil {
		return make([]MatchCase, n)
	}
	for i := len(sc.caseBufs) - 1; i >= 0 && i >= len(sc.caseBufs)-8; i-- {
		if cap(sc.caseBufs[i]) >= n {
			b := sc.caseBufs[i][:n]
			last := len(sc.caseBufs) - 1
			sc.caseBufs[i] = sc.caseBufs[last]
			sc.caseBufs[last] = nil
			sc.caseBufs = sc.caseBufs[:last]
			return b
		}
	}
	c := n
	if c < 4 {
		c = 4
	}
	return make([]MatchCase, n, c)
}

// PutCases returns a buffer obtained from Cases.
func (sc *Scratch) PutCases(b []MatchCase) {
	if sc == nil || cap(b) == 0 || len(sc.caseBufs) >= maxFree {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = MatchCase{}
	}
	sc.caseBufs = append(sc.caseBufs, b[:0])
}

// TrialSubst returns an empty substitution for speculative unification.
func (sc *Scratch) TrialSubst() Subst {
	if sc != nil {
		if n := len(sc.substs); n > 0 {
			s := sc.substs[n-1]
			sc.substs[n-1] = nil
			sc.substs = sc.substs[:n-1]
			return s
		}
	}
	return Subst{}
}

// PutSubst returns a substitution obtained from TrialSubst. The map is
// cleared here; callers must not retain it or any view of it.
func (sc *Scratch) PutSubst(s Subst) {
	if sc == nil || s == nil || len(sc.substs) >= maxFree {
		return
	}
	clear(s)
	sc.substs = append(sc.substs, s)
}

// ---------------------------------------------------------------------------
// Small-integer name rendering. Fresh-name generation on the hot path
// (metavariables, fingerprint binders, unification skolems) renders names
// with small counters; precomputed tables make the common case a slice
// index instead of an allocation.

const smallInts = 512

var smallIntTab = func() [smallInts]string {
	var t [smallInts]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// itoaSmall is strconv.Itoa with a zero-alloc fast path for small n.
func itoaSmall(n int) string {
	if n >= 0 && n < smallInts {
		return smallIntTab[n]
	}
	return strconv.Itoa(n)
}

// Precomputed name families used by fingerprinting and unification.
var (
	fpBinderTab = func() [smallInts]string {
		var t [smallInts]string
		for i := range t {
			t[i] = "b" + strconv.Itoa(i)
		}
		return t
	}()
	fpMatchBinderTab = func() [smallInts]string {
		var t [smallInts]string
		for i := range t {
			t[i] = "mb" + strconv.Itoa(i)
		}
		return t
	}()
	unifyFreshTab = func() [smallInts]string {
		var t [smallInts]string
		for i := range t {
			t[i] = "!u" + strconv.Itoa(i)
		}
		return t
	}()
)

func fpBinderName(n int) string {
	if n >= 0 && n < smallInts {
		return fpBinderTab[n]
	}
	return "b" + strconv.Itoa(n)
}

func fpMatchBinderName(n int) string {
	if n >= 0 && n < smallInts {
		return fpMatchBinderTab[n]
	}
	return "mb" + strconv.Itoa(n)
}

func unifyFreshName(n int) string {
	if n >= 0 && n < smallInts {
		return unifyFreshTab[n]
	}
	return "!u" + strconv.Itoa(n)
}
