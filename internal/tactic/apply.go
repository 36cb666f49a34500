package tactic

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"llmfscq/internal/kernel"
)

// Constant rejections are shared values: the search reads only a
// tactic's status, so a rejection need not allocate its error.
var (
	errApplyNoName          = errors.New("tactic: apply expects a name")
	errApplyNoUnify         = errors.New("tactic: cannot unify lemma conclusion with the goal")
	errApplyTooManyWith     = errors.New("tactic: too many 'with' instantiations")
	errEapplyUndetermined   = errors.New("tactic: cannot determine existential instances")
	errApplyUndetermined    = errors.New("tactic: cannot infer instantiation; try eapply")
	errApplyInNoPremise     = errors.New("tactic: lemma has no premise to match the hypothesis")
	errApplyInNoUnify       = errors.New("tactic: cannot unify lemma premise with the hypothesis")
	errApplyInUndetermined  = errors.New("tactic: cannot infer instantiation for apply ... in")
	errConstructorExists    = errors.New("tactic: use 'exists' to provide a witness")
	errNoConstructorApplies = errors.New("tactic: no applicable constructor")
	errNoConstructors       = errors.New("tactic: goal has no constructors")
)

// applyRule's rejections. tacConstructor keeps only the first, and the
// search reads only the status, so each renders its text when asked for: a
// single-pointer struct goes into an interface without allocating, and the
// rule it holds is immutable.
type (
	ctorNoMatch      struct{ r *kernel.Rule }
	ctorUndetermined struct{ r *kernel.Rule }
)

func (e ctorNoMatch) Error() string {
	return "tactic: constructor " + e.r.Name + " does not match"
}

func (e ctorUndetermined) Error() string {
	return "tactic: constructor " + e.r.Name + " leaves undetermined instances"
}

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
// are annotations and never occur in term positions. The metavariables go
// straight into flex, which becomes the instantiation's flex set, and the
// metas and premises are appended to buf's slices from their start, so a
// caller done with one instantiation hands its slices back as the next buf.
func instantiate(stmt *kernel.Form, mc *kernel.MetaCounter, sc *kernel.Scratch, flex map[string]bool, buf instantiated) instantiated {
	inst, _ := peel(stmt, mc, false, sc, instantiated{flex: flex, metas: buf.metas[:0], prems: buf.prems[:0]})
	return inst
}

// instantiateAll returns the instantiation at every premise boundary, from
// least stripped (whole matrix as conclusion) to fully stripped. apply tries
// the fully stripped form first, then backs off, which lets a `~`-lemma
// match a `~`-goal the way Coq's apply does.
func instantiateAll(stmt *kernel.Form, mc *kernel.MetaCounter, sc *kernel.Scratch) []instantiated {
	inst, out := peel(stmt, mc, true, sc, instantiated{flex: map[string]bool{}})
	return append(out, inst)
}

// peel is the walk behind instantiate and instantiateAll. It returns the
// fully stripped instantiation and, when snaps is set, one snapshot per
// premise boundary, least stripped first. sc is the substitution's scratch
// arena (nil allocates). inst brings the flex set and the slices to fill.
//
// Each block of leading quantifiers is substituted in one walk of its body.
// Metavariables are numbered in binder order, as one walk per binder would
// number them; a name bound twice in a block maps to its inner binder's
// metavariable, and a type binder shadows a term binder of its name, which
// is exactly what the per-binder walks would leave.
func peel(stmt *kernel.Form, mc *kernel.MetaCounter, snaps bool, sc *kernel.Scratch, inst instantiated) (instantiated, []instantiated) {
	var out []instantiated
	f := stmt
	for {
		switch f.Kind {
		case kernel.FForall:
			var block kernel.Subst
			for ; f.Kind == kernel.FForall; f = f.Body {
				if f.BType.IsType() {
					delete(block, f.Binder)
					continue
				}
				m := mc.Fresh(f.Binder)
				inst.flex[m] = true
				inst.metas = append(inst.metas, m)
				if block == nil {
					block = sc.TrialSubst()
				}
				block[f.Binder] = kernel.V(m)
			}
			f = f.SubstTermS(block, sc)
			sc.PutSubst(block)
		case kernel.FImpl, kernel.FNot:
			if snaps {
				snap := inst
				snap.concl = f
				snap.prems = append([]*kernel.Form(nil), inst.prems...)
				out = append(out, snap)
			}
			inst.prems = append(inst.prems, f.L)
			if f.Kind == kernel.FImpl {
				f = f.R
			} else {
				// ~A is A -> False (applying a negated hypothesis to a
				// False goal is routine Coq style).
				f = kernel.False()
			}
		default:
			inst.concl = f
			return inst, out
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
// statement's identity). sc serves the instantiation on a miss.
func instantiations(stmt *kernel.Form, sc *kernel.Scratch) []instantiated {
	if v, ok := instMemo.Load(stmt); ok {
		return v.([]instantiated)
	}
	var mc kernel.MetaCounter
	insts := instantiateAll(stmt, &mc, sc)
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
	return nil, unknownNameError{name}
}

// unknownNameError rejects a name that is neither a hypothesis, a lemma
// nor a rule. The search reads only the status, so the quoted text is
// rendered when asked for.
type unknownNameError struct{ name string }

func (e unknownNameError) Error() string {
	return fmt.Sprintf("tactic: unknown hypothesis or lemma %q", e.name)
}

// metasResolved checks that every meta resolves to a term free of the
// instantiation's metas. (Its flex set may hold more: auto's gathers a whole
// resolution's, and a premise boundary's has the later boundaries'.)
func metasResolved(inst instantiated, sub kernel.Subst, sc *kernel.Scratch) bool {
	for _, m := range inst.metas {
		t := kernel.FullResolveS(kernel.V(m), sub, sc)
		if t.IsVar() && slices.Contains(inst.metas, t.Var) {
			return false
		}
		unresolved := false
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsVar() && slices.Contains(inst.metas, u.Var) {
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
	for _, v := range f.FreeNames() {
		if flex[v] {
			return true
		}
	}
	return false
}

func tacApply(env *kernel.Env, g *Goal, c Call, eapply bool, sc *kernel.Scratch) ([]*Goal, error) {
	if len(c.Idents) == 0 {
		return nil, errApplyNoName
	}
	name := c.Idents[0]
	stmt, err := lookupStmt(env, g, name)
	if err != nil {
		return nil, err
	}
	if c.InHyp != "" {
		return applyInHyp(env, g, stmt, c.InHyp, sc)
	}
	candidates := instantiations(stmt, sc)
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
		return nil, errApplyNoUnify
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
			return nil, errApplyTooManyWith
		}
	}
	if eapply {
		sub = resolvePremsWithHyps(g, inst, sub, sc)
	}
	if !metasResolved(inst, sub, sc) {
		if eapply {
			return nil, errEapplyUndetermined
		}
		return nil, errApplyUndetermined
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
	candidates := instantiations(stmt, sc)
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
			return nil, errApplyInNoPremise
		}
		return nil, errApplyInNoUnify
	}
	if !metasResolved(inst, sub, sc) {
		return nil, errApplyInUndetermined
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
		return nil, errConstructorExists
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
			firstErr = errNoConstructorApplies
		}
		return nil, firstErr
	}
	return nil, errNoConstructors
}

func applyRule(env *kernel.Env, g *Goal, r *kernel.Rule, econ bool, sc *kernel.Scratch) ([]*Goal, error) {
	insts := instantiations(r.Statement(), sc)
	inst := insts[len(insts)-1]
	sub := sc.TrialSubst()
	if !kernel.UnifyForms(inst.concl, g.Concl, inst.flex, sub) {
		sc.PutSubst(sub)
		return nil, ctorNoMatch{r}
	}
	if econ {
		sub = resolvePremsWithHyps(g, inst, sub, sc)
	}
	if !metasResolved(inst, sub, sc) {
		return nil, ctorUndetermined{r}
	}
	out := make([]*Goal, 0, len(inst.prems))
	for _, prem := range inst.prems {
		ng := g.Clone()
		ng.Concl = kernel.FullResolveFormS(prem, sub, sc)
		out = append(out, ng)
	}
	return out, nil
}
