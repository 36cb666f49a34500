package tactic

import (
	"errors"
	"fmt"
	"sync"

	"llmfscq/internal/kernel"
)

// instantiated is a lemma/rule statement with its universal binders replaced
// by fresh metavariables.
type instantiated struct {
	flex  map[string]bool
	metas []string
	prems []*kernel.Form
	concl *kernel.Form
}

// instantiate peels alternating forall/impl prefixes, replacing term binders
// with metavariables. Type binders (`forall (A : Type)`) are dropped: types
// are annotations and never occur in term positions.
func instantiate(stmt *kernel.Form, mc *kernel.MetaCounter) instantiated {
	insts := instantiateAll(stmt, mc)
	return insts[len(insts)-1]
}

// instantiateAll returns the instantiation at every premise boundary, from
// least stripped (whole matrix as conclusion) to fully stripped. apply tries
// the fully stripped form first, then backs off, which lets a `~`-lemma
// match a `~`-goal the way Coq's apply does.
func instantiateAll(stmt *kernel.Form, mc *kernel.MetaCounter) []instantiated {
	var out []instantiated
	inst := instantiated{flex: map[string]bool{}}
	f := stmt
	for {
		switch f.Kind {
		case kernel.FForall:
			if f.BType.IsType() {
				f = f.Body
				continue
			}
			m := mc.Fresh(f.Binder)
			inst.flex[m] = true
			inst.metas = append(inst.metas, m)
			f = f.Body.Subst1(f.Binder, kernel.V(m))
		case kernel.FImpl:
			snap := inst
			snap.concl = f
			snap.prems = append([]*kernel.Form(nil), inst.prems...)
			out = append(out, snap)
			inst.prems = append(inst.prems, f.L)
			f = f.R
		case kernel.FNot:
			// ~A is A -> False (applying a negated hypothesis to a False
			// goal is routine Coq style).
			snap := inst
			snap.concl = f
			snap.prems = append([]*kernel.Form(nil), inst.prems...)
			out = append(out, snap)
			inst.prems = append(inst.prems, f.L)
			f = kernel.False()
		default:
			inst.concl = f
			out = append(out, inst)
			return out
		}
	}
}

// instMemo caches instantiations by canonical statement pointer. Safe
// because the instantiation list is a pure function of the statement when
// the MetaCounter starts fresh (metavariable names are then determined by
// binder order alone), and every consumer treats the result as read-only:
// flex maps are only read by unification, and prems/concl/metas are never
// written through. auto cannot use this memo — its resolver threads one
// counter across the whole resolution so repeated uses of a lemma get
// distinct metavariables.
var instMemo sync.Map // *kernel.Form -> []instantiated

// instantiations is instantiateAll with a fresh MetaCounter, memoized on the
// statement pointer (every formula is interned, so the pointer is the
// statement's identity).
func instantiations(stmt *kernel.Form) []instantiated {
	if v, ok := instMemo.Load(stmt); ok {
		return v.([]instantiated)
	}
	var mc kernel.MetaCounter
	insts := instantiateAll(stmt, &mc)
	if v, loaded := instMemo.LoadOrStore(stmt, insts); loaded {
		return v.([]instantiated)
	}
	return insts
}

// lookupStmt resolves a name to a hypothesis or lemma statement.
func lookupStmt(env *kernel.Env, g *Goal, name string) (*kernel.Form, error) {
	if h, ok := g.HypNamed(name); ok {
		return h.Form, nil
	}
	if l, ok := env.Lemmas[name]; ok {
		return l.Stmt, nil
	}
	if _, r := env.RuleNamed(name); r != nil {
		return r.Statement(), nil
	}
	return nil, fmt.Errorf("tactic: unknown hypothesis or lemma %q", name)
}

// metasResolved checks that every meta resolves to a meta-free term.
func metasResolved(inst instantiated, sub kernel.Subst, sc *kernel.Scratch) bool {
	for _, m := range inst.metas {
		t := kernel.FullResolveS(kernel.V(m), sub, sc)
		if t.IsVar() && inst.flex[t.Var] {
			return false
		}
		unresolved := false
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsVar() && inst.flex[u.Var] {
				unresolved = true
				return false
			}
			return true
		})
		if unresolved {
			return false
		}
	}
	return true
}

// resolvePremsWithHyps tries to determine remaining metavariables by
// unifying under-determined premises against hypotheses, in order. This is
// the eapply/econstructor approximation: existentials may not escape a
// single tactic, so they must be fixed by some hypothesis.
func resolvePremsWithHyps(g *Goal, inst instantiated, sub kernel.Subst, sc *kernel.Scratch) kernel.Subst {
	for _, prem := range inst.prems {
		p := kernel.FullResolveFormS(prem, sub, sc)
		if !formHasMeta(p, inst.flex) {
			continue
		}
		for _, h := range g.Hyps {
			trial := sc.TrialSubst()
			copySub(trial, sub)
			if kernel.UnifyForms(p, h.Form, inst.flex, trial) {
				sub = trial
				break
			}
			sc.PutSubst(trial)
		}
	}
	return sub
}

func formHasMeta(f *kernel.Form, flex map[string]bool) bool {
	for v := range f.FreeVars() {
		if flex[v] {
			return true
		}
	}
	return false
}

func tacApply(env *kernel.Env, g *Goal, c Call, eapply bool, sc *kernel.Scratch) ([]*Goal, error) {
	if len(c.Idents) == 0 {
		return nil, errors.New("tactic: apply expects a name")
	}
	name := c.Idents[0]
	stmt, err := lookupStmt(env, g, name)
	if err != nil {
		return nil, err
	}
	if c.InHyp != "" {
		return applyInHyp(env, g, stmt, c.InHyp, sc)
	}
	candidates := instantiations(stmt)
	var inst instantiated
	var sub kernel.Subst
	matched := false
	trial := sc.TrialSubst()
	for i := len(candidates) - 1; i >= 0; i-- {
		if kernel.UnifyForms(candidates[i].concl, g.Concl, candidates[i].flex, trial) {
			// trial's ownership transfers to sub; it is never recycled.
			inst, sub, matched = candidates[i], trial, true
			break
		}
		if len(trial) > 0 {
			clear(trial)
		}
	}
	if !matched {
		sc.PutSubst(trial)
		return nil, errors.New("tactic: cannot unify lemma conclusion with the goal")
	}
	// `apply L with t ...`: positional instantiation of the metavariables
	// left unresolved by conclusion unification, in binder order.
	if len(c.Terms) > 0 {
		wi := 0
		for _, m := range inst.metas {
			if wi >= len(c.Terms) {
				break
			}
			r := kernel.Resolve(kernel.V(m), sub)
			if r.IsVar() && inst.flex[r.Var] {
				t, err := resolveGoalTerm(env, g, c.Terms[wi])
				if err != nil {
					return nil, err
				}
				sub[r.Var] = t
				wi++
			}
		}
		if wi < len(c.Terms) {
			return nil, errors.New("tactic: too many 'with' instantiations")
		}
	}
	if eapply {
		sub = resolvePremsWithHyps(g, inst, sub, sc)
	}
	if !metasResolved(inst, sub, sc) {
		if eapply {
			return nil, errors.New("tactic: cannot determine existential instances")
		}
		return nil, errors.New("tactic: cannot infer instantiation; try eapply")
	}
	out := make([]*Goal, 0, len(inst.prems))
	for _, prem := range inst.prems {
		ng := g.Clone()
		ng.Concl = kernel.FullResolveFormS(prem, sub, sc)
		out = append(out, ng)
	}
	return out, nil
}

// applyInHyp is `apply L in H`: forward chaining.
func applyInHyp(env *kernel.Env, g *Goal, stmt *kernel.Form, hname string, sc *kernel.Scratch) ([]*Goal, error) {
	h, ok := g.HypNamed(hname)
	if !ok {
		return nil, fmt.Errorf("tactic: no hypothesis %q", hname)
	}
	candidates := instantiations(stmt)
	// Use the least-stripped instantiation with exactly one premise: H is
	// matched against the lemma's first premise and replaced by everything
	// after it (Coq does not unfold `~` past the first premise here).
	var inst instantiated
	var sub kernel.Subst
	matched := false
	trial := sc.TrialSubst()
	for _, cand := range candidates {
		if len(cand.prems) == 0 {
			continue
		}
		if kernel.UnifyForms(cand.prems[0], h.Form, cand.flex, trial) {
			inst, sub, matched = cand, trial, true
			break
		}
		if len(trial) > 0 {
			clear(trial)
		}
	}
	if !matched {
		sc.PutSubst(trial)
		if len(candidates[len(candidates)-1].prems) == 0 {
			return nil, errors.New("tactic: lemma has no premise to match the hypothesis")
		}
		return nil, errors.New("tactic: cannot unify lemma premise with the hypothesis")
	}
	if !metasResolved(inst, sub, sc) {
		return nil, errors.New("tactic: cannot infer instantiation for apply ... in")
	}
	main := g.ReplaceHyp(hname, kernel.FullResolveFormS(inst.concl, sub, sc))
	out := []*Goal{main}
	for _, prem := range inst.prems[1:] {
		ng := g.Clone()
		ng.Concl = kernel.FullResolveFormS(prem, sub, sc)
		out = append(out, ng)
	}
	return out, nil
}

func tacConstructor(env *kernel.Env, g *Goal, econ bool, sc *kernel.Scratch) ([]*Goal, error) {
	switch g.Concl.Kind {
	case kernel.FTrue:
		return nil, nil
	case kernel.FAnd:
		return tacSplit(env, g)
	case kernel.FOr:
		return tacLeftRight(env, g, true)
	case kernel.FEq:
		return tacReflexivity(env, g)
	case kernel.FExists:
		return nil, errors.New("tactic: use 'exists' to provide a witness")
	case kernel.FPred:
		p, ok := env.Preds[g.Concl.Pred]
		if !ok {
			return nil, fmt.Errorf("tactic: %q is not an inductive predicate", g.Concl.Pred)
		}
		var firstErr error
		for i := range p.Rules {
			r := &p.Rules[i]
			out, err := applyRule(env, g, r, econ, sc)
			if err == nil {
				return out, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		if firstErr == nil {
			firstErr = errors.New("tactic: no applicable constructor")
		}
		return nil, firstErr
	}
	return nil, errors.New("tactic: goal has no constructors")
}

func applyRule(env *kernel.Env, g *Goal, r *kernel.Rule, econ bool, sc *kernel.Scratch) ([]*Goal, error) {
	insts := instantiations(r.Statement())
	inst := insts[len(insts)-1]
	sub := sc.TrialSubst()
	if !kernel.UnifyForms(inst.concl, g.Concl, inst.flex, sub) {
		sc.PutSubst(sub)
		return nil, fmt.Errorf("tactic: constructor %s does not match", r.Name)
	}
	if econ {
		sub = resolvePremsWithHyps(g, inst, sub, sc)
	}
	if !metasResolved(inst, sub, sc) {
		return nil, fmt.Errorf("tactic: constructor %s leaves undetermined instances", r.Name)
	}
	out := make([]*Goal, 0, len(inst.prems))
	for _, prem := range inst.prems {
		ng := g.Clone()
		ng.Concl = kernel.FullResolveFormS(prem, sub, sc)
		out = append(out, ng)
	}
	return out, nil
}
