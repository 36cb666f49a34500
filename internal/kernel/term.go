// Package kernel implements the logical core of the proof assistant that
// stands in for Coq in this reproduction: a first-order term language with
// inductive datatypes, recursive functions (match-based, like Gallina
// fixpoints), inductive predicates, and a formula language with the usual
// connectives and quantifiers.
//
// The kernel is deliberately small but real: terms evaluate, formulas have
// precise substitution semantics, and the tactic layer built on top can only
// close goals by applying genuine inference rules.
package kernel

import (
	"strconv"
	"strings"
)

// Term is a first-order term: a variable, an application of a constructor or
// function symbol (possibly nullary), or a match expression.
//
// Exactly one of the three shapes is active:
//   - Var != ""            → variable
//   - Match != nil         → match expression
//   - otherwise            → application of Fun to Args (Fun may be nullary)
type Term struct {
	Var   string
	Fun   string
	Args  []*Term
	Match *MatchExpr

	// Structural 128-bit hash and variable-name bloom signature, computed by
	// the interning constructors (intern.go); varSig covers bound names too,
	// so it over-approximates the free variables.
	hash, hash2 uint64
	varSig      uint64
}

// MatchExpr is a pattern match on a scrutinee term. Patterns are constructor
// applications of distinct variables, or a single variable (wildcard).
type MatchExpr struct {
	Scrut *Term
	Cases []MatchCase
}

// MatchCase is one arm of a match expression.
type MatchCase struct {
	Pat *Term
	RHS *Term
}

// V returns a variable term.
func V(name string) *Term { return mkVar(name) }

// A returns an application term.
func A(fun string, args ...*Term) *Term { return mkApp(fun, args) }

// IsVar reports whether t is a variable.
func (t *Term) IsVar() bool { return t != nil && t.Var != "" }

// IsApp reports whether t is an application (including nullary constants).
func (t *Term) IsApp() bool { return t != nil && t.Var == "" && t.Match == nil }

// NatLit builds the Peano numeral for n.
func NatLit(n int) *Term {
	t := A("O")
	for i := 0; i < n; i++ {
		t = A("S", t)
	}
	return t
}

// AsNat decodes a Peano numeral, reporting ok=false for non-numerals.
func (t *Term) AsNat() (int, bool) {
	n := 0
	for {
		switch {
		case t == nil:
			return 0, false
		case t.IsApp() && t.Fun == "O" && len(t.Args) == 0:
			return n, true
		case t.IsApp() && t.Fun == "S" && len(t.Args) == 1:
			n++
			t = t.Args[0]
		default:
			return 0, false
		}
	}
}

// ListLit builds a cons-list term from elements.
func ListLit(elems ...*Term) *Term {
	t := A("nil")
	for i := len(elems) - 1; i >= 0; i-- {
		t = A("cons", elems[i], t)
	}
	return t
}

// Equal reports structural equality of terms. Every term is interned, so
// structurally equal terms are one pointer.
func (t *Term) Equal(u *Term) bool { return t == u }

// AlphaEqualTerms compares terms up to consistent renaming of
// match-pattern binders (free variables must coincide exactly). Stuck
// matches produced by capture-avoiding substitution differ only in binder
// names; convertibility checks must not distinguish them.
func AlphaEqualTerms(a, b *Term) bool {
	return alphaEqTerm(a, b, map[string]string{}, map[string]string{})
}

// ren maps a-side bound names to b-side names; inv is the inverse (to keep
// the renaming injective).
func alphaEqTerm(a, b *Term, ren, inv map[string]string) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	case a.Var != "" || b.Var != "":
		if a.Var == "" || b.Var == "" {
			return false
		}
		if r, ok := ren[a.Var]; ok {
			return r == b.Var
		}
		// Free on the a side: must be identical and not bound on the b side.
		if _, bound := inv[b.Var]; bound {
			return false
		}
		return a.Var == b.Var
	case a.Match != nil || b.Match != nil:
		if a.Match == nil || b.Match == nil {
			return false
		}
		if len(a.Match.Cases) != len(b.Match.Cases) {
			return false
		}
		if !alphaEqTerm(a.Match.Scrut, b.Match.Scrut, ren, inv) {
			return false
		}
		for i := range a.Match.Cases {
			ca, cb := a.Match.Cases[i], b.Match.Cases[i]
			ren2 := cloneStrMap(ren)
			inv2 := cloneStrMap(inv)
			if !bindPatterns(ca.Pat, cb.Pat, ren2, inv2) {
				return false
			}
			if !alphaEqTerm(ca.RHS, cb.RHS, ren2, inv2) {
				return false
			}
		}
		return true
	default:
		if a.Fun != b.Fun || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !alphaEqTerm(a.Args[i], b.Args[i], ren, inv) {
				return false
			}
		}
		return true
	}
}

// bindPatterns aligns two linear constructor patterns, extending the
// renaming at binder positions.
func bindPatterns(pa, pb *Term, ren, inv map[string]string) bool {
	switch {
	case pa == nil || pb == nil:
		return pa == pb
	case pa.Var != "" || pb.Var != "":
		if pa.Var == "" || pb.Var == "" {
			return false
		}
		ren[pa.Var] = pb.Var
		inv[pb.Var] = pa.Var
		return true
	default:
		if pa.Fun != pb.Fun || len(pa.Args) != len(pb.Args) {
			return false
		}
		for i := range pa.Args {
			if !bindPatterns(pa.Args[i], pb.Args[i], ren, inv) {
				return false
			}
		}
		return true
	}
}

func cloneStrMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Subst is a substitution from variable names to terms.
type Subst map[string]*Term

// Clone copies the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// ApplySubst substitutes variables in t by s, capture-avoiding with respect
// to match-pattern binders.
func (t *Term) ApplySubst(s Subst) *Term { return t.ApplySubstS(s, nil) }

// ApplySubstS is ApplySubst drawing transient child-slice buffers from a
// per-search scratch arena (sc may be nil; see Scratch).
func (t *Term) ApplySubstS(s Subst, sc *Scratch) *Term {
	if t == nil || len(s) == 0 {
		return t
	}
	return t.applySubst(s, s.sig(), sc)
}

// applySubst threads the substitution's domain signature so subtrees whose
// variable signature is disjoint from it are returned untouched without a
// walk.
func (t *Term) applySubst(s Subst, sig uint64, sc *Scratch) *Term {
	if t == nil {
		return t
	}
	if t.varSig&sig == 0 {
		return t
	}
	switch {
	case t.Var != "":
		if r, ok := s[t.Var]; ok {
			return r
		}
		return t
	case t.Match != nil:
		cases := sc.Cases(len(t.Match.Cases))
		changed := false
		for i, c := range t.Match.Cases {
			// Pattern variables shadow: remove them from the substitution
			// for the RHS. If a substituted value mentions a pattern
			// variable, alpha-rename the pattern first (capture avoidance).
			bound := c.Pat.Vars()
			inner := s
			needsTrim := false
			for v := range bound {
				if _, ok := s[v]; ok {
					needsTrim = true
					break
				}
			}
			if needsTrim {
				inner = s.Clone()
				for v := range bound {
					delete(inner, v)
				}
			}
			pat, rhs := c.Pat, c.RHS
			captured := false
		capcheck:
			for _, val := range inner {
				for v := range val.Vars() {
					if bound[v] {
						captured = true
						break capcheck
					}
				}
			}
			if captured {
				used := map[string]bool{}
				for v := range rhs.Vars() {
					used[v] = true
				}
				for v := range bound {
					used[v] = true
				}
				for _, val := range inner {
					for v := range val.Vars() {
						used[v] = true
					}
				}
				ren := map[string]string{}
				for v := range bound {
					ren[v] = FreshName(v+"'", used)
				}
				pat = pat.Rename(ren)
				rhs = rhs.Rename(ren)
			}
			if needsTrim || captured {
				cases[i] = MatchCase{Pat: pat, RHS: rhs.ApplySubstS(inner, sc)}
			} else {
				cases[i] = MatchCase{Pat: pat, RHS: rhs.applySubst(s, sig, sc)}
			}
			if cases[i] != c {
				changed = true
			}
		}
		scrut := t.Match.Scrut.applySubst(s, sig, sc)
		// Terms are immutable, so when nothing was substituted the original
		// is returned as-is rather than rebuilt (here and in the app case
		// below) — most substitutions touch only a small subtree.
		if !changed && scrut == t.Match.Scrut {
			sc.PutCases(cases)
			return t
		}
		r := mkMatch(scrut, cases)
		sc.PutCases(cases)
		return r
	default:
		args := mapTerms(t.Args, func(a *Term) *Term { return a.applySubst(s, sig, sc) }, sc)
		if args == nil {
			return t
		}
		r := mkApp(t.Fun, args)
		sc.PutArgs(args)
		return r
	}
}

// Vars returns the set of free variables in t.
func (t *Term) Vars() map[string]bool {
	out := map[string]bool{}
	t.addVars(out)
	return out
}

func (t *Term) addVars(out map[string]bool) {
	switch {
	case t == nil:
	case t.Var != "":
		out[t.Var] = true
	case t.Match != nil:
		t.Match.Scrut.addVars(out)
		for _, c := range t.Match.Cases {
			inner := map[string]bool{}
			c.RHS.addVars(inner)
			for v := range c.Pat.Vars() {
				delete(inner, v)
			}
			for v := range inner {
				out[v] = true
			}
		}
	default:
		for _, a := range t.Args {
			a.addVars(out)
		}
	}
}

// AppendFree appends the free variable occurrences of t to dst, left to
// right and with repeats (Vars is the same names as a set). A caller that
// reports a name picks it by position, not by map order.
func (t *Term) AppendFree(dst []string) []string { return appendTermNames(dst, t, nil) }

// HasVar reports whether v occurs free in t.
func (t *Term) HasVar(v string) bool {
	switch {
	case t == nil:
		return false
	case t.varSig&varBit(v) == 0:
		// The signature covers every occurring name (free and bound), so a
		// miss proves absence.
		return false
	case t.Var != "":
		return t.Var == v
	case t.Match != nil:
		if t.Match.Scrut.HasVar(v) {
			return true
		}
		for _, c := range t.Match.Cases {
			if c.Pat.Vars()[v] {
				continue
			}
			if c.RHS.HasVar(v) {
				return true
			}
		}
		return false
	default:
		for _, a := range t.Args {
			if a.HasVar(v) {
				return true
			}
		}
		return false
	}
}

// Size returns the number of nodes in t (used for fuel accounting and as a
// rough cost metric).
func (t *Term) Size() int {
	switch {
	case t == nil:
		return 0
	case t.Var != "":
		return 1
	case t.Match != nil:
		n := 1 + t.Match.Scrut.Size()
		for _, c := range t.Match.Cases {
			n += c.Pat.Size() + c.RHS.Size()
		}
		return n
	default:
		n := 1
		for _, a := range t.Args {
			n += a.Size()
		}
		return n
	}
}

// infix operator rendering for the standard corpus symbols.
var infixOps = map[string]string{
	"plus":  "+",
	"minus": "-",
	"mult":  "*",
	"app":   "++",
	"cons":  "::",
}

// String renders the term in the surface syntax (numerals and infix
// operators are pretty-printed).
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b, false)
	return b.String()
}

func (t *Term) write(b *strings.Builder, paren bool) {
	switch {
	case t == nil:
		b.WriteString("<nil>")
	case t.Var != "":
		b.WriteString(t.Var)
	case t.Match != nil:
		if paren {
			b.WriteByte('(')
		}
		b.WriteString("match ")
		t.Match.Scrut.write(b, false)
		b.WriteString(" with")
		for _, c := range t.Match.Cases {
			b.WriteString(" | ")
			c.Pat.write(b, false)
			b.WriteString(" => ")
			c.RHS.write(b, false)
		}
		b.WriteString(" end")
		if paren {
			b.WriteByte(')')
		}
	default:
		if n, ok := t.AsNat(); ok {
			b.WriteString(strconv.Itoa(n))
			return
		}
		if op, ok := infixOps[t.Fun]; ok && len(t.Args) == 2 {
			if paren {
				b.WriteByte('(')
			}
			t.Args[0].write(b, true)
			b.WriteByte(' ')
			b.WriteString(op)
			b.WriteByte(' ')
			t.Args[1].write(b, true)
			if paren {
				b.WriteByte(')')
			}
			return
		}
		if len(t.Args) == 0 {
			b.WriteString(t.Fun)
			return
		}
		if paren {
			b.WriteByte('(')
		}
		b.WriteString(t.Fun)
		for _, a := range t.Args {
			b.WriteByte(' ')
			a.write(b, true)
		}
		if paren {
			b.WriteByte(')')
		}
	}
}

// Rename applies a variable renaming (a special case of substitution that is
// also applied to match-pattern binders), used for freshening.
func (t *Term) Rename(ren map[string]string) *Term {
	if t == nil || len(ren) == 0 {
		return t
	}
	return t.rename(ren, renSig(ren))
}

func (t *Term) rename(ren map[string]string, sig uint64) *Term {
	if t == nil {
		return t
	}
	if t.varSig&sig == 0 {
		return t
	}
	switch {
	case t.Var != "":
		if r, ok := ren[t.Var]; ok {
			return V(r)
		}
		return t
	case t.Match != nil:
		cases := make([]MatchCase, len(t.Match.Cases))
		for i, c := range t.Match.Cases {
			cases[i] = MatchCase{Pat: c.Pat.rename(ren, sig), RHS: c.RHS.rename(ren, sig)}
		}
		return mkMatch(t.Match.Scrut.rename(ren, sig), cases)
	default:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.rename(ren, sig)
		}
		return mkApp(t.Fun, args)
	}
}

// Subterms calls f on every subterm of t (pre-order). If f returns false the
// walk stops early.
func (t *Term) Subterms(f func(*Term) bool) bool {
	if t == nil {
		return true
	}
	if !f(t) {
		return false
	}
	switch {
	case t.Var != "":
		return true
	case t.Match != nil:
		if !t.Match.Scrut.Subterms(f) {
			return false
		}
		for _, c := range t.Match.Cases {
			if !c.RHS.Subterms(f) {
				return false
			}
		}
		return true
	default:
		for _, a := range t.Args {
			if !a.Subterms(f) {
				return false
			}
		}
		return true
	}
}

// ReplaceAll replaces every occurrence of the subterm old (by structural
// equality) with new, returning the rewritten term and the number of
// replacements.
func (t *Term) ReplaceAll(old, new *Term) (*Term, int) {
	if t == nil {
		return t, 0
	}
	if t.Equal(old) {
		return new, 1
	}
	switch {
	case t.Var != "":
		return t, 0
	case t.Match != nil:
		scrut, n := t.Match.Scrut.ReplaceAll(old, new)
		cases := make([]MatchCase, len(t.Match.Cases))
		for i, c := range t.Match.Cases {
			rhs, m := c.RHS.ReplaceAll(old, new)
			n += m
			cases[i] = MatchCase{Pat: c.Pat, RHS: rhs}
		}
		if n == 0 {
			return t, 0
		}
		return mkMatch(scrut, cases), n
	default:
		total := 0
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			na, n := a.ReplaceAll(old, new)
			args[i] = na
			total += n
		}
		if total == 0 {
			return t, 0
		}
		return mkApp(t.Fun, args), total
	}
}

// FreshName returns a name based on base that is not in used, and marks it
// used. Like Coq, a trailing number is incremented rather than suffixed
// (m1 → m2, not m10); bases without a number get one appended (H → H0).
// Each candidate is rendered into a buffer and looked up without
// allocating: only the name returned becomes a string.
func FreshName(base string, used map[string]bool) string {
	if base == "" {
		base = "x"
	}
	if !used[base] {
		used[base] = true
		return base
	}
	stem := strings.TrimRight(base, "0123456789")
	start := 0
	if stem == "" {
		stem = "x"
	} else if stem != base {
		if n, err := strconv.Atoi(base[len(stem):]); err == nil {
			start = n + 1
		}
	}
	var arr [32]byte
	buf := append(arr[:0], stem...)
	for i := start; ; i++ {
		cand := strconv.AppendInt(buf, int64(i), 10)
		if !used[string(cand)] {
			name := string(cand)
			used[name] = true
			return name
		}
	}
}
