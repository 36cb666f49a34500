package kernel

import (
	"slices"
	"strings"
	"sync/atomic"
)

// FormKind enumerates formula shapes.
type FormKind int

// Formula kinds.
const (
	FTrue FormKind = iota
	FFalse
	FEq   // T1 = T2
	FPred // Pred(Args) — inductive predicate or unfoldable definition
	FNot  // ~ L
	FAnd  // L /\ R
	FOr   // L \/ R
	FImpl // L -> R
	FIff  // L <-> R
	FForall
	FExists
)

// Form is a formula of the object logic.
type Form struct {
	Kind FormKind

	// FEq
	T1, T2 *Term

	// FPred
	Pred string
	Args []*Term

	// Binary connectives; FNot uses L only.
	L, R *Form

	// Quantifiers.
	Binder string
	BType  *Type
	Body   *Form

	// Strict structural hash (includes Binder and BType — it matches the
	// concrete rendering, unlike Equal, which ignores BType) and
	// variable-name bloom signature; see intern.go.
	hash, hash2 uint64
	varSig      uint64

	// free memoizes FreeNames, filled on first use (see intern.go).
	free atomic.Pointer[[]string]
}

// Constructors for each formula shape (interning; see intern.go).
func True() *Form  { return finishForm(&Form{Kind: FTrue}) }
func False() *Form { return finishForm(&Form{Kind: FFalse}) }
func Eq(a, b *Term) *Form {
	return finishForm(&Form{Kind: FEq, T1: a, T2: b})
}
func Pred(name string, args ...*Term) *Form {
	return mkPred(name, args)
}
func Not(f *Form) *Form     { return mkConn(FNot, f, nil) }
func And(a, b *Form) *Form  { return mkConn(FAnd, a, b) }
func Or(a, b *Form) *Form   { return mkConn(FOr, a, b) }
func Impl(a, b *Form) *Form { return mkConn(FImpl, a, b) }
func Iff(a, b *Form) *Form  { return mkConn(FIff, a, b) }
func Forall(x string, ty *Type, body *Form) *Form {
	return mkQuant(FForall, x, ty, body)
}
func Exists(x string, ty *Type, body *Form) *Form {
	return mkQuant(FExists, x, ty, body)
}

// ImplChain builds prems[0] -> ... -> prems[n-1] -> concl.
func ImplChain(prems []*Form, concl *Form) *Form {
	out := concl
	for i := len(prems) - 1; i >= 0; i-- {
		out = Impl(prems[i], out)
	}
	return out
}

// Equal reports structural (not alpha) equality. Note there is no
// hash-based fast path here: the stored form hash is strict (it includes
// BType), while Equal deliberately ignores quantifier binder types, so hash
// inequality does not imply Equal-inequality.
func (f *Form) Equal(g *Form) bool {
	if f == g {
		return true
	}
	if f == nil || g == nil {
		return false
	}
	if f.Kind != g.Kind {
		return false
	}
	switch f.Kind {
	case FTrue, FFalse:
		return true
	case FEq:
		return f.T1.Equal(g.T1) && f.T2.Equal(g.T2)
	case FPred:
		if f.Pred != g.Pred || len(f.Args) != len(g.Args) {
			return false
		}
		for i := range f.Args {
			if !f.Args[i].Equal(g.Args[i]) {
				return false
			}
		}
		return true
	case FNot:
		return f.L.Equal(g.L)
	case FAnd, FOr, FImpl, FIff:
		return f.L.Equal(g.L) && f.R.Equal(g.R)
	case FForall, FExists:
		return f.Binder == g.Binder && f.Body.Equal(g.Body)
	}
	return false
}

// SubstTerm substitutes free term variables in the formula, capture-avoiding:
// quantifiers whose binder would capture a substituted variable are renamed.
func (f *Form) SubstTerm(s Subst) *Form { return f.SubstTermS(s, nil) }

// SubstTermS is SubstTerm drawing transient buffers from a per-search
// scratch arena (sc may be nil; see Scratch).
func (f *Form) SubstTermS(s Subst, sc *Scratch) *Form {
	if f == nil || len(s) == 0 {
		return f
	}
	return f.substTerm(s, s.sig(), sc)
}

func (f *Form) substTerm(s Subst, sig uint64, sc *Scratch) *Form {
	if f == nil {
		return f
	}
	if f.varSig&sig == 0 {
		// No name in the substitution's domain occurs anywhere in f (the
		// signature covers bound names too), so this is the identity.
		return f
	}
	if f.Kind != FForall && f.Kind != FExists {
		return f.Map(func(t *Term) *Term { return t.applySubst(s, sig, sc) },
			func(g *Form) *Form { return g.substTerm(s, sig, sc) }, sc)
	}
	inner := s
	innerSig := sig
	binder := f.Binder
	// Binder shadows any substitution for its own name.
	if _, shadows := s[binder]; shadows {
		inner = s.Clone()
		delete(inner, binder)
		innerSig = inner.sig()
	}
	// Capture check: if any substituted term mentions the binder, rename
	// the binder first.
	captured := false
	for _, t := range inner {
		if t.HasVar(binder) {
			captured = true
			break
		}
	}
	if captured {
		used := map[string]bool{}
		for _, v := range f.Body.FreeNames() {
			used[v] = true
		}
		for _, t := range inner {
			for v := range t.Vars() {
				used[v] = true
			}
		}
		fresh := FreshName(binder, used)
		renamed := f.Body.SubstTerm(Subst{binder: V(fresh)})
		return mkQuant(f.Kind, fresh, f.BType, renamed.SubstTermS(inner, sc))
	}
	body := f.Body.substTerm(inner, innerSig, sc)
	if body == f.Body {
		return f
	}
	return mkQuant(f.Kind, binder, f.BType, body)
}

// Map rebuilds f with term applied at each of its own term positions (an
// equation's sides, a predicate's arguments) and form applied to each
// immediate subformula (a connective's operands, a quantifier's body under
// the same binder). Forms are immutable, so Map is copy-on-write: when every
// call returns its argument, f itself is returned rather than rebuilt. sc
// (may be nil) lends the predicate case its argument buffer.
//
// Map is the copy-on-write rebuild every formula walk shares: a walk
// recurses by calling Map again from form, and keeps only its own special
// case (a quantifier it handles or skips, an atom it replaces).
func (f *Form) Map(term func(*Term) *Term, form func(*Form) *Form, sc *Scratch) *Form {
	if f == nil {
		return nil
	}
	switch f.Kind {
	case FEq:
		t1, t2 := term(f.T1), term(f.T2)
		if t1 == f.T1 && t2 == f.T2 {
			return f
		}
		return Eq(t1, t2)
	case FPred:
		args := mapTerms(f.Args, term, sc)
		if args == nil {
			return f
		}
		r := mkPred(f.Pred, args)
		sc.PutArgs(args)
		return r
	case FNot, FAnd, FOr, FImpl, FIff:
		l, r := form(f.L), f.R
		if r != nil {
			r = form(r)
		}
		if l == f.L && r == f.R {
			return f
		}
		return mkConn(f.Kind, l, r)
	case FForall, FExists:
		body := form(f.Body)
		if body == f.Body {
			return f
		}
		return mkQuant(f.Kind, f.Binder, f.BType, body)
	}
	return f
}

// mapTerms applies fn to each of ts, copy-on-write: it returns nil when
// every call returned its argument, and otherwise a buffer from sc (may be
// nil) holding the results, which the caller hands back with sc.PutArgs
// once the interning constructor has copied it.
func mapTerms(ts []*Term, fn func(*Term) *Term, sc *Scratch) []*Term {
	var out []*Term
	for i, t := range ts {
		nt := fn(t)
		if nt != t && out == nil {
			out = sc.Args(len(ts))
			copy(out, ts[:i])
		}
		if out != nil {
			out[i] = nt
		}
	}
	return out
}

// EachAtom calls fn on each atom of f (True, False, an equation or a
// predicate), left to right, until fn returns false. It enters quantifier
// bodies only when quantified is set. It reports whether every call
// returned true.
func (f *Form) EachAtom(quantified bool, fn func(*Form) bool) bool {
	if f == nil {
		return true
	}
	switch f.Kind {
	case FNot, FAnd, FOr, FImpl, FIff:
		return f.L.EachAtom(quantified, fn) && f.R.EachAtom(quantified, fn)
	case FForall, FExists:
		return !quantified || f.Body.EachAtom(quantified, fn)
	}
	return fn(f)
}

// EachTerm calls fn on each term position of f's atoms (an equation's two
// sides, a predicate's arguments), left to right, until fn returns false.
// It enters quantifier bodies only when quantified is set, and reports
// whether every call returned true.
func (f *Form) EachTerm(quantified bool, fn func(*Term) bool) bool {
	return f.EachAtom(quantified, func(a *Form) bool {
		if a.Kind == FEq {
			return fn(a.T1) && fn(a.T2)
		}
		for _, t := range a.Args {
			if !fn(t) {
				return false
			}
		}
		return true
	})
}

// Subst1 substitutes a single variable.
func (f *Form) Subst1(x string, t *Term) *Form { return f.SubstTerm(Subst{x: t}) }

// FreeVars returns the free term variables of the formula as a fresh map
// (FreeNames is the same set, memoized and sorted).
func (f *Form) FreeVars() map[string]bool {
	names := f.FreeNames()
	out := make(map[string]bool, len(names))
	for _, v := range names {
		out[v] = true
	}
	return out
}

// HasFreeVar reports whether x occurs free in f.
func (f *Form) HasFreeVar(x string) bool {
	if f == nil || f.varSig&varBit(x) == 0 {
		return false
	}
	_, found := slices.BinarySearch(f.FreeNames(), x)
	return found
}

// AppendFree is Term.AppendFree for formulas: the free variable
// occurrences of f, left to right, with quantifier binders bound in their
// body.
func (f *Form) AppendFree(dst []string) []string { return f.appendFree(dst, nil) }

// appendFree is AppendFree under the binders in bound (its spare capacity
// is scratch, as in appendTermNames).
func (f *Form) appendFree(dst, bound []string) []string {
	if f == nil {
		return dst
	}
	switch f.Kind {
	case FEq:
		dst = appendTermNames(appendTermNames(dst, f.T1, bound), f.T2, bound)
	case FPred:
		for _, a := range f.Args {
			dst = appendTermNames(dst, a, bound)
		}
	case FNot:
		dst = f.L.appendFree(dst, bound)
	case FAnd, FOr, FImpl, FIff:
		dst = f.R.appendFree(f.L.appendFree(dst, bound), bound)
	case FForall, FExists:
		dst = f.Body.appendFree(dst, append(bound, f.Binder))
	}
	return dst
}

// Size counts formula + term nodes.
func (f *Form) Size() int {
	if f == nil {
		return 0
	}
	switch f.Kind {
	case FTrue, FFalse:
		return 1
	case FEq:
		return 1 + f.T1.Size() + f.T2.Size()
	case FPred:
		n := 1
		for _, a := range f.Args {
			n += a.Size()
		}
		return n
	case FNot:
		return 1 + f.L.Size()
	case FAnd, FOr, FImpl, FIff:
		return 1 + f.L.Size() + f.R.Size()
	case FForall, FExists:
		return 1 + f.Body.Size()
	}
	return 1
}

// precedence levels for printing: iff < impl < or < and < not < atom
func (f *Form) prec() int {
	switch f.Kind {
	case FForall, FExists:
		return 0
	case FIff:
		return 1
	case FImpl:
		return 2
	case FOr:
		return 3
	case FAnd:
		return 4
	case FNot:
		return 5
	default:
		return 6
	}
}

// String renders the formula in the surface syntax.
func (f *Form) String() string {
	var b strings.Builder
	f.write(&b, 0)
	return b.String()
}

func (f *Form) write(b *strings.Builder, outerPrec int) {
	if f == nil {
		b.WriteString("<nil>")
		return
	}
	p := f.prec()
	open := p < outerPrec || (p == outerPrec && (f.Kind == FImpl || f.Kind == FIff))
	// Implication is right-associative, so equal precedence on the left
	// needs parens but we only track one level; parenthesize conservatively
	// when equal except for the chains we print below.
	if open {
		b.WriteByte('(')
	}
	switch f.Kind {
	case FTrue:
		b.WriteString("True")
	case FFalse:
		b.WriteString("False")
	case FEq:
		b.WriteString(f.T1.String())
		b.WriteString(" = ")
		b.WriteString(f.T2.String())
	case FPred:
		b.WriteString(f.Pred)
		for _, a := range f.Args {
			b.WriteByte(' ')
			var tb strings.Builder
			a.write(&tb, true)
			b.WriteString(tb.String())
		}
	case FNot:
		b.WriteString("~ ")
		f.L.write(b, 6)
	case FAnd:
		f.L.write(b, 5)
		b.WriteString(" /\\ ")
		f.R.write(b, 4)
	case FOr:
		f.L.write(b, 4)
		b.WriteString(" \\/ ")
		f.R.write(b, 3)
	case FImpl:
		f.L.write(b, 3)
		b.WriteString(" -> ")
		f.R.write(b, 2)
	case FIff:
		f.L.write(b, 2)
		b.WriteString(" <-> ")
		f.R.write(b, 2)
	case FForall, FExists:
		kw := "forall"
		if f.Kind == FExists {
			kw = "exists"
		}
		b.WriteString(kw)
		// Coalesce consecutive same-kind binders.
		cur := f
		for {
			b.WriteString(" (")
			b.WriteString(cur.Binder)
			b.WriteString(" : ")
			b.WriteString(cur.BType.String())
			b.WriteByte(')')
			if cur.Body != nil && cur.Body.Kind == f.Kind {
				cur = cur.Body
				continue
			}
			break
		}
		b.WriteString(", ")
		cur.Body.write(b, 0)
	}
	if open {
		b.WriteByte(')')
	}
}

// fingerprint hashes the canonical serialization of the formula, with bound
// variables alpha-renamed to positional names, into b. Two alpha-equivalent
// formulas write the same bytes, so they get the same FingerprintKey.
func (f *Form) fingerprint(b *fpHash, ren map[string]string, ctr *int) {
	if f == nil {
		b.WriteString("#nil")
		return
	}
	switch f.Kind {
	case FTrue:
		b.WriteString("T")
	case FFalse:
		b.WriteString("F")
	case FEq:
		b.WriteString("(= ")
		fingerprintTerm(f.T1, b, ren, ctr)
		b.WriteByte(' ')
		fingerprintTerm(f.T2, b, ren, ctr)
		b.WriteByte(')')
	case FPred:
		b.WriteString("(P ")
		b.WriteString(f.Pred)
		for _, a := range f.Args {
			b.WriteByte(' ')
			fingerprintTerm(a, b, ren, ctr)
		}
		b.WriteByte(')')
	case FNot:
		b.WriteString("(~ ")
		f.L.fingerprint(b, ren, ctr)
		b.WriteByte(')')
	case FAnd, FOr, FImpl, FIff:
		b.WriteByte('(')
		switch f.Kind {
		case FAnd:
			b.WriteString("&")
		case FOr:
			b.WriteString("|")
		case FImpl:
			b.WriteString(">")
		default:
			b.WriteString("<>")
		}
		b.WriteByte(' ')
		f.L.fingerprint(b, ren, ctr)
		b.WriteByte(' ')
		f.R.fingerprint(b, ren, ctr)
		b.WriteByte(')')
	case FForall, FExists:
		q := "A"
		if f.Kind == FExists {
			q = "E"
		}
		*ctr++
		fresh := fpBinderName(*ctr)
		old, had := ren[f.Binder]
		ren[f.Binder] = fresh
		b.WriteString("(")
		b.WriteString(q)
		b.WriteString(fresh)
		b.WriteByte(' ')
		f.Body.fingerprint(b, ren, ctr)
		b.WriteByte(')')
		if had {
			ren[f.Binder] = old
		} else {
			delete(ren, f.Binder)
		}
	}
}

// fingerprintTerm hashes a term canonically: match-pattern binders are
// renamed positionally so alpha-variant stuck matches coincide. A nullary
// constant is written after a quote, which no name starts with, so it never
// writes the bytes of a variable of its name.
func fingerprintTerm(t *Term, b *fpHash, ren map[string]string, ctr *int) {
	switch {
	case t == nil:
		b.WriteString("#nil")
	case t.Var != "":
		if r, ok := ren[t.Var]; ok {
			b.WriteString(r)
		} else {
			b.WriteString(t.Var)
		}
	case t.Match != nil:
		b.WriteString("(m ")
		fingerprintTerm(t.Match.Scrut, b, ren, ctr)
		for _, c := range t.Match.Cases {
			inner := ren
			binders := c.Pat.Vars()
			if len(binders) > 0 {
				inner = make(map[string]string, len(ren)+len(binders))
				for k, v := range ren {
					inner[k] = v
				}
				renamePatBinders(c.Pat, ren, inner, ctr)
			}
			b.WriteString(" [")
			fingerprintTerm(c.Pat, b, inner, ctr)
			b.WriteString(" ")
			fingerprintTerm(c.RHS, b, inner, ctr)
			b.WriteString("]")
		}
		b.WriteByte(')')
	default:
		if len(t.Args) == 0 {
			b.WriteByte('\'')
			b.WriteString(t.Fun)
			return
		}
		b.WriteByte('(')
		b.WriteString(t.Fun)
		for _, a := range t.Args {
			b.WriteByte(' ')
			fingerprintTerm(a, b, ren, ctr)
		}
		b.WriteByte(')')
	}
}

// renamePatBinders gives the pattern's binders positional names in inner,
// in pattern order for determinism.
func renamePatBinders(p *Term, ren, inner map[string]string, ctr *int) {
	switch {
	case p == nil:
	case p.Var != "":
		if _, done := inner[p.Var]; !done || ren[p.Var] == inner[p.Var] {
			*ctr++
			inner[p.Var] = fpMatchBinderName(*ctr)
		}
	default:
		for _, a := range p.Args {
			renamePatBinders(a, ren, inner, ctr)
		}
	}
}

// StripForalls peels leading universal quantifiers, returning the binders
// and the matrix.
func (f *Form) StripForalls() ([]TypedVar, *Form) {
	var binders []TypedVar
	for f != nil && f.Kind == FForall {
		binders = append(binders, TypedVar{Name: f.Binder, Type: f.BType})
		f = f.Body
	}
	return binders, f
}

// StripImpls peels an implication chain, returning the premises and the
// final conclusion.
func (f *Form) StripImpls() ([]*Form, *Form) {
	var prems []*Form
	for f != nil && f.Kind == FImpl {
		prems = append(prems, f.L)
		f = f.R
	}
	return prems, f
}
