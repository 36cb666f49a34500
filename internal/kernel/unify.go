package kernel

// Meta variable names are ordinary variables listed in a "flexible" set.
// Unification may bind flexible variables; all other variables are rigid.

// MetaCounter generates fresh metavariable names with a reserved prefix that
// the surface syntax cannot produce.
type MetaCounter struct{ n int }

// Fresh returns a new metavariable name derived from base.
func (m *MetaCounter) Fresh(base string) string {
	m.n++
	return "?" + base + itoaSmall(m.n)
}

// Resolve dereferences a term through the substitution until it is not a
// bound flexible variable.
func Resolve(t *Term, sub Subst) *Term {
	for t != nil && t.Var != "" {
		r, ok := sub[t.Var]
		if !ok {
			return t
		}
		t = r
	}
	return t
}

// FullResolve applies the substitution recursively to every subterm.
func FullResolve(t *Term, sub Subst) *Term { return FullResolveS(t, sub, nil) }

// FullResolveS is FullResolve with a scratch arena for the transient child
// buffers (sc may be nil). Terms are immutable, so a node none of whose
// children the substitution changes is returned as-is rather than rebuilt
// (here and in FullResolveFormS), as applySubst does.
func FullResolveS(t *Term, sub Subst, sc *Scratch) *Term {
	if len(sub) == 0 {
		return t
	}
	t = Resolve(t, sub)
	switch {
	case t == nil || t.Var != "":
		return t
	case t.Match != nil:
		cases := sc.Cases(len(t.Match.Cases))
		changed := false
		for i, c := range t.Match.Cases {
			cases[i] = MatchCase{Pat: c.Pat, RHS: FullResolveS(c.RHS, sub, sc)}
			changed = changed || cases[i].RHS != c.RHS
		}
		scrut := FullResolveS(t.Match.Scrut, sub, sc)
		r := t
		if changed || scrut != t.Match.Scrut {
			r = mkMatch(scrut, cases)
		}
		sc.PutCases(cases)
		return r
	default:
		args := mapTerms(t.Args, func(a *Term) *Term { return FullResolveS(a, sub, sc) }, sc)
		if args == nil {
			return t
		}
		r := mkApp(t.Fun, args)
		sc.PutArgs(args)
		return r
	}
}

// FullResolveForm applies the substitution recursively inside a formula.
func FullResolveForm(f *Form, sub Subst) *Form { return FullResolveFormS(f, sub, nil) }

// FullResolveFormS is FullResolveForm with a scratch arena (sc may be nil).
func FullResolveFormS(f *Form, sub Subst, sc *Scratch) *Form {
	if f == nil || len(sub) == 0 {
		return f
	}
	return f.Map(func(t *Term) *Term { return FullResolveS(t, sub, sc) },
		func(g *Form) *Form { return FullResolveFormS(g, sub, sc) }, sc)
}

func occurs(v string, t *Term, sub Subst) bool {
	t = Resolve(t, sub)
	switch {
	case t == nil:
		return false
	case t.Var != "":
		return t.Var == v
	case t.Match != nil:
		if occurs(v, t.Match.Scrut, sub) {
			return true
		}
		for _, c := range t.Match.Cases {
			if occurs(v, c.RHS, sub) {
				return true
			}
		}
		return false
	default:
		for _, a := range t.Args {
			if occurs(v, a, sub) {
				return true
			}
		}
		return false
	}
}

// UnifyTerms unifies a and b, binding only variables in flex. It extends sub
// in place and reports success; on failure sub may contain partial bindings
// (callers clone before speculative unification).
func UnifyTerms(a, b *Term, flex map[string]bool, sub Subst) bool {
	a = Resolve(a, sub)
	b = Resolve(b, sub)
	// Pointer-identical resolved terms always unify without bindings: every
	// variable pair hit during the structural walk would be the same name on
	// both sides, which unifies via the Var==Var cases binding nothing.
	if a == b {
		return true
	}
	switch {
	case a == nil || b == nil:
		return false
	case a.Var != "" && flex[a.Var]:
		if b.Var == a.Var {
			return true
		}
		if occurs(a.Var, b, sub) {
			return false
		}
		sub[a.Var] = b
		return true
	case b.Var != "" && flex[b.Var]:
		if occurs(b.Var, a, sub) {
			return false
		}
		sub[b.Var] = a
		return true
	case a.Var != "" || b.Var != "":
		return a.Var == b.Var
	case a.Match != nil || b.Match != nil:
		// Stuck matches unify only when structurally identical.
		if a.Match == nil || b.Match == nil {
			return false
		}
		if len(a.Match.Cases) != len(b.Match.Cases) {
			return false
		}
		if !UnifyTerms(a.Match.Scrut, b.Match.Scrut, flex, sub) {
			return false
		}
		for i := range a.Match.Cases {
			if !a.Match.Cases[i].Pat.Equal(b.Match.Cases[i].Pat) {
				return false
			}
			if !UnifyTerms(a.Match.Cases[i].RHS, b.Match.Cases[i].RHS, flex, sub) {
				return false
			}
		}
		return true
	default:
		if a.Fun != b.Fun || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !UnifyTerms(a.Args[i], b.Args[i], flex, sub) {
				return false
			}
		}
		return true
	}
}

// UnifyForms unifies two formulas, binding flexible term variables.
// Quantified formulas unify up to alpha by renaming both binders to a shared
// rigid fresh name.
func UnifyForms(a, b *Form, flex map[string]bool, sub Subst) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case FTrue, FFalse:
		return true
	case FEq:
		return UnifyTerms(a.T1, b.T1, flex, sub) && UnifyTerms(a.T2, b.T2, flex, sub)
	case FPred:
		if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !UnifyTerms(a.Args[i], b.Args[i], flex, sub) {
				return false
			}
		}
		return true
	case FNot:
		return UnifyForms(a.L, b.L, flex, sub)
	case FAnd, FOr, FImpl, FIff:
		return UnifyForms(a.L, b.L, flex, sub) && UnifyForms(a.R, b.R, flex, sub)
	case FForall, FExists:
		fresh := unifyFreshName(len(sub) + a.Size() + b.Size())
		ab := a.Body.Subst1(a.Binder, V(fresh))
		bb := b.Body.Subst1(b.Binder, V(fresh))
		return UnifyForms(ab, bb, flex, sub)
	}
	return false
}

// FindInstanceS searches t (pre-order, leftmost-outermost) for a subterm u
// such that pat unifies with u binding only flex vars. It returns the
// concrete matched subterm (fully resolved) and the extended substitution.
// The speculative trial substitution comes from the scratch arena (nil
// allocates) and is reset after each failed subterm instead of cloned per
// subterm. On success the trial map is returned to the caller (ownership
// transfers out of the scratch); on failure it is recycled.
func FindInstanceS(pat *Term, t *Term, flex map[string]bool, sub Subst, sc *Scratch) (*Term, Subst, bool) {
	var found *Term
	var foundSub Subst
	trial := sc.TrialSubst()
	for k, v := range sub {
		trial[k] = v
	}
	t.Subterms(func(u *Term) bool {
		if u.Match != nil {
			return true // skip binders inside match RHS (handled by Subterms walk)
		}
		if UnifyTerms(pat, u, flex, trial) {
			found = FullResolveS(u, trial, sc)
			foundSub = trial
			return false
		}
		// A failed attempt may have left partial bindings; reset to sub.
		if len(trial) != len(sub) {
			clear(trial)
			for k, v := range sub {
				trial[k] = v
			}
		}
		return true
	})
	if found == nil {
		sc.PutSubst(trial)
		return nil, nil, false
	}
	return found, foundSub, true
}

// FindInstanceFormS searches the terms of a formula, left to right, for an
// instance of pat as FindInstanceS does. It does not look under binders:
// instances there may capture.
func FindInstanceFormS(pat *Term, f *Form, flex map[string]bool, sub Subst, sc *Scratch) (*Term, Subst, bool) {
	var found *Term
	var foundSub Subst
	ok := false
	f.EachTerm(false, func(t *Term) bool {
		found, foundSub, ok = FindInstanceS(pat, t, flex, sub, sc)
		return !ok
	})
	return found, foundSub, ok
}

// ReplaceAllForm replaces every occurrence of old in the formula's terms
// (outside binders) with new.
func ReplaceAllForm(f *Form, old, new *Term) (*Form, int) {
	if f == nil || f.Kind == FForall || f.Kind == FExists {
		// Conservative: no rewriting under binders.
		return f, 0
	}
	total := 0
	out := f.Map(func(t *Term) *Term {
		r, n := t.ReplaceAll(old, new)
		total += n
		return r
	}, func(g *Form) *Form {
		r, n := ReplaceAllForm(g, old, new)
		total += n
		return r
	}, nil)
	return out, total
}
