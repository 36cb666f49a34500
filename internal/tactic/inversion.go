package tactic

import (
	"fmt"

	"llmfscq/internal/kernel"
)

// tacInversion analyses how a hypothesis could have been derived. For an
// inductive-predicate hypothesis it produces one subgoal per rule whose
// conclusion can match, adding the rule's premises and the equations implied
// by injectivity; impossible rules (constructor clashes) produce no subgoal.
// For primitive connectives it behaves like destruct; for constructor
// equalities it performs injection/discrimination.
func tacInversion(env *kernel.Env, g *Goal, hname string, sc *kernel.Scratch) ([]*Goal, error) {
	h, ok := g.HypNamed(hname)
	if !ok {
		return nil, fmt.Errorf("tactic: no hypothesis %q", hname)
	}
	switch h.Form.Kind {
	case kernel.FPred:
		p, ok := env.Preds[h.Form.Pred]
		if !ok {
			// Unfoldable definitions are not invertible directly.
			return nil, fmt.Errorf("tactic: %q is not an inductive predicate; unfold it first", h.Form.Pred)
		}
		// Inversion works up to conversion: normalize the hypothesis
		// arguments so computed values expose their constructors.
		ev := kernel.NewEvaluator(env)
		args := make([]*kernel.Term, len(h.Form.Args))
		for i, a := range h.Form.Args {
			na, err := ev.Normalize(a)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		// The in-scope names are the same for every rule: compute them
		// once and let each rule borrow them (see invertRule).
		used := g.usedNames()
		defer releaseNames(used)
		var out []*Goal
		for i := range p.Rules {
			sub, err := invertRule(env, g, &p.Rules[i], args, used, sc)
			if err != nil {
				return nil, err
			}
			if sub != nil {
				out = append(out, sub)
			}
		}
		return out, nil
	case kernel.FEq:
		return invertEquality(env, g, h)
	case kernel.FAnd, kernel.FOr, kernel.FExists, kernel.FIff, kernel.FFalse, kernel.FTrue:
		return destructHyp(env, g, h, nil)
	case kernel.FNot:
		return nil, fmt.Errorf("tactic: cannot invert a negation")
	default:
		return nil, fmt.Errorf("tactic: cannot invert %s : %s", h.Name, h.Form)
	}
}

// invEq is a leftover equation produced by inversion (hypothesis side =
// rule side).
type invEq struct{ lhs, rhs *kernel.Term }

// invertRule matches one rule's conclusion against the hypothesis arguments.
// Returns (nil, nil) when the rule is impossible (constructor clash).
//
// used is g's in-scope name set (g.usedNames()), shared by all the rules of
// one inversion. A rule overlays the names it adds — its fresh variables,
// then its hypotheses' names — and removes them again before returning, so
// every rule sees exactly g's names and none copies the set. sc is the
// substitutions' scratch arena (nil allocates).
func invertRule(env *kernel.Env, g *Goal, r *kernel.Rule, hypArgs []*kernel.Term, used map[string]bool, sc *kernel.Scratch) (*Goal, error) {
	if len(r.ConclArgs) != len(hypArgs) {
		return nil, fmt.Errorf("tactic: arity mismatch inverting rule %s", r.Name)
	}
	// Most rules an inversion tries clash with the hypothesis at the top of
	// some argument. Renaming keeps a rule argument's head, so decompose
	// would reach that position and find the rule impossible whatever it
	// bound before; the rule is dropped here, before anything allocates.
	for i, a := range r.ConclArgs {
		b := hypArgs[i]
		if a.IsApp() && b.IsApp() && a.Fun != b.Fun && env.IsConstructor(a.Fun) && env.IsConstructor(b.Fun) {
			return nil, nil
		}
	}
	// Freshen rule variables against goal names; flex holds the fresh
	// variables, the names decompose may bind.
	flex := make([]kernel.TypedVar, 0, len(r.Vars))
	renSub := make(kernel.Subst, len(r.Vars))
	for _, v := range r.Vars {
		f := kernel.FreshName(v.Name, used)
		renSub[v.Name] = kernel.V(f)
		flex = append(flex, kernel.TypedVar{Name: f, Type: v.Type})
	}

	sub := kernel.Subst{}
	var leftovers []invEq
	impossible := false

	// decompose matches rule-side term a against hypothesis-side term b.
	var decompose func(a, b *kernel.Term)
	decompose = func(a, b *kernel.Term) {
		if impossible {
			return
		}
		a = kernel.Resolve(a, sub)
		b = kernel.Resolve(b, sub)
		switch {
		case a.IsVar() && declares(flex, a.Var):
			sub[a.Var] = b
		case a.IsVar() && b.IsVar() && a.Var == b.Var:
			// identical rigid variables
		case a.IsApp() && b.IsApp() && env.IsConstructor(a.Fun) && env.IsConstructor(b.Fun):
			if a.Fun != b.Fun || len(a.Args) != len(b.Args) {
				impossible = true
				return
			}
			for i := range a.Args {
				decompose(a.Args[i], b.Args[i])
			}
		default:
			// Non-decomposable pair: record as a leftover equation
			// (hypothesis side on the left, Coq-style).
			leftovers = append(leftovers, invEq{lhs: b, rhs: a})
		}
	}

	for i := range hypArgs {
		decompose(r.ConclArgs[i].ApplySubstS(renSub, sc), hypArgs[i])
		if impossible {
			forgetVars(used, flex)
			return nil, nil
		}
	}

	unbound := 0
	for _, v := range flex {
		if _, bound := sub[v.Name]; !bound {
			unbound++
		}
	}
	ng := g.cloneRoom(unbound, len(r.Prems)+len(leftovers))
	// Add the rule variables that remained unbound. The new goal's names
	// are g's plus exactly those, so the bound ones leave the overlay
	// before hypotheses are named.
	for _, v := range flex {
		if _, bound := sub[v.Name]; !bound {
			ng.Vars = append(ng.Vars, v)
		} else {
			delete(used, v.Name)
		}
	}
	firstNew := len(ng.Hyps)
	for _, prem := range r.Prems {
		f := kernel.FullResolveFormS(prem.SubstTermS(renSub, sc), sub, sc)
		ng.Hyps = append(ng.Hyps, Hyp{Name: ng.FreshHypName(used), Form: f})
	}
	for _, eq := range leftovers {
		l := kernel.FullResolveS(eq.lhs, sub, sc)
		rr := kernel.FullResolveS(eq.rhs, sub, sc)
		if l.Equal(rr) {
			continue
		}
		ng.Hyps = append(ng.Hyps, Hyp{Name: ng.FreshHypName(used), Form: kernel.Eq(l, rr)})
	}
	// Hand used back as it came.
	forgetVars(used, flex)
	for _, h := range ng.Hyps[firstNew:] {
		delete(used, h.Name)
	}
	return ng, nil
}

// declares reports whether vars declares name.
func declares(vars []kernel.TypedVar, name string) bool {
	for _, v := range vars {
		if v.Name == name {
			return true
		}
	}
	return false
}

// forgetVars removes vars' names from used.
func forgetVars(used map[string]bool, vars []kernel.TypedVar) {
	for _, v := range vars {
		delete(used, v.Name)
	}
}

// invertEquality performs injection/discrimination on an equality
// hypothesis between constructor applications.
func invertEquality(env *kernel.Env, g *Goal, h Hyp) ([]*Goal, error) {
	ev := kernel.NewEvaluator(env)
	t1, err := ev.Normalize(h.Form.T1)
	if err != nil {
		return nil, err
	}
	t2, err := ev.Normalize(h.Form.T2)
	if err != nil {
		return nil, err
	}
	if ctorClash(env, t1, t2) {
		return nil, nil // absurd hypothesis closes the goal
	}
	if t1.IsApp() && t2.IsApp() && env.IsConstructor(t1.Fun) && t1.Fun == t2.Fun && len(t1.Args) == len(t2.Args) {
		ng := g.Clone()
		used := ng.usedNames()
		defer releaseNames(used)
		added := false
		for i := range t1.Args {
			if t1.Args[i].Equal(t2.Args[i]) {
				continue
			}
			ng.Hyps = append(ng.Hyps, Hyp{Name: ng.FreshHypName(used), Form: kernel.Eq(t1.Args[i], t2.Args[i])})
			added = true
		}
		if !added {
			return []*Goal{g}, nil
		}
		return []*Goal{ng}, nil
	}
	if t1.Equal(t2) {
		return []*Goal{g}, nil
	}
	return nil, fmt.Errorf("tactic: cannot invert equality %s", h.Form)
}
