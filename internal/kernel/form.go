package kernel

import (
	"strings"
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
//
//hot:root
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
	switch f.Kind {
	case FTrue, FFalse:
		return f
	case FEq:
		// Forms are immutable: subtrees the substitution does not touch are
		// returned as-is rather than rebuilt (likewise in every case below).
		t1, t2 := f.T1.applySubst(s, sig, sc), f.T2.applySubst(s, sig, sc)
		if t1 == f.T1 && t2 == f.T2 {
			return f
		}
		return Eq(t1, t2)
	case FPred:
		var nargs []*Term
		for i, a := range f.Args {
			na := a.applySubst(s, sig, sc)
			if na != a && nargs == nil {
				nargs = sc.Args(len(f.Args))
				copy(nargs, f.Args[:i])
			}
			if nargs != nil {
				nargs[i] = na
			}
		}
		if nargs == nil {
			return f
		}
		r := mkPred(f.Pred, nargs)
		sc.PutArgs(nargs)
		return r
	case FNot:
		l := f.L.substTerm(s, sig, sc)
		if l == f.L {
			return f
		}
		return Not(l)
	case FAnd, FOr, FImpl, FIff:
		l, r := f.L.substTerm(s, sig, sc), f.R.substTerm(s, sig, sc)
		if l == f.L && r == f.R {
			return f
		}
		return mkConn(f.Kind, l, r)
	case FForall, FExists:
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
			for v := range f.Body.FreeVars() {
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
	return f
}

// Subst1 substitutes a single variable.
func (f *Form) Subst1(x string, t *Term) *Form { return f.SubstTerm(Subst{x: t}) }

// FreeVars returns the free term variables of the formula.
func (f *Form) FreeVars() map[string]bool {
	out := map[string]bool{}
	f.addFreeVars(out, map[string]bool{})
	return out
}

func (f *Form) addFreeVars(out, bound map[string]bool) {
	if f == nil {
		return
	}
	addTerm := func(t *Term) {
		for v := range t.Vars() {
			if !bound[v] {
				out[v] = true
			}
		}
	}
	switch f.Kind {
	case FEq:
		addTerm(f.T1)
		addTerm(f.T2)
	case FPred:
		for _, a := range f.Args {
			addTerm(a)
		}
	case FNot:
		f.L.addFreeVars(out, bound)
	case FAnd, FOr, FImpl, FIff:
		f.L.addFreeVars(out, bound)
		f.R.addFreeVars(out, bound)
	case FForall, FExists:
		was := bound[f.Binder]
		bound[f.Binder] = true
		f.Body.addFreeVars(out, bound)
		bound[f.Binder] = was
	}
}

// HasFreeVar reports whether x occurs free in f.
func (f *Form) HasFreeVar(x string) bool {
	if f == nil {
		return false
	}
	if f.varSig&varBit(x) == 0 {
		return false
	}
	return f.FreeVars()[x]
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

// Fingerprint returns a canonical string for the formula with bound
// variables alpha-renamed to positional names. Two alpha-equivalent formulas
// have identical fingerprints. This textual form is kept for the wire
// protocol's cross-checks and for display; internal pruning compares
// FingerprintKey, a 128-bit hash of exactly this byte stream.
func (f *Form) Fingerprint() string {
	var b strings.Builder
	f.fingerprint(&b, map[string]string{}, new(int))
	return b.String()
}

// fingerprint writes the canonical serialization to any fpSink — a
// strings.Builder for the textual fingerprint, an fpHash for the key.
func (f *Form) fingerprint(b fpSink, ren map[string]string, ctr *int) {
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
		ops := map[FormKind]string{FAnd: "&", FOr: "|", FImpl: ">", FIff: "<>"}
		b.WriteString("(")
		b.WriteString(ops[f.Kind])
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

// fingerprintTerm renders a term canonically: match-pattern binders are
// renamed positionally so alpha-variant stuck matches coincide.
func fingerprintTerm(t *Term, b fpSink, ren map[string]string, ctr *int) {
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
				// Rename binders in pattern order for determinism.
				var walk func(p *Term)
				walk = func(p *Term) {
					switch {
					case p == nil:
					case p.Var != "":
						if _, done := inner[p.Var]; !done || ren[p.Var] == inner[p.Var] {
							*ctr++
							inner[p.Var] = fpMatchBinderName(*ctr)
						}
					default:
						for _, a := range p.Args {
							walk(a)
						}
					}
				}
				walk(c.Pat)
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
			b.WriteString(t.Fun)
			return
		}
		b.WriteString("(" + t.Fun)
		for _, a := range t.Args {
			b.WriteByte(' ')
			fingerprintTerm(a, b, ren, ctr)
		}
		b.WriteByte(')')
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
