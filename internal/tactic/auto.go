package tactic

import (
	"errors"
	"sync"

	"llmfscq/internal/kernel"
)

// autoDefaultDepth matches Coq's default auto search depth.
const autoDefaultDepth = 5

// autoNodeBudget bounds the resolution search; exhausting it fails the
// tactic (the checker layer treats slow tactics as timeouts).
const autoNodeBudget = 20000

// errAutoFails is shared: a rejection need not allocate (see apply.go).
var errAutoFails = errors.New("tactic: auto cannot solve the goal")

// tacAuto runs Prolog-style backward chaining over the hint database,
// hypotheses, and the structural rules for the connectives. auto requires
// every lemma instantiation to be fully determined by conclusion
// unification; eauto threads undetermined metavariables through subsequent
// subgoals (proper resolution with backtracking).
func tacAuto(env *kernel.Env, g *Goal, depth int, eauto bool, sc *kernel.Scratch) ([]*Goal, error) {
	if depth < 0 {
		depth = autoDefaultDepth
	}
	r := &resolver{env: env, eauto: eauto, nodes: autoNodeBudget, ev: kernel.NewEvaluator(env), hints: hintsFor(env), sc: sc}
	hyps := make([]*kernel.Form, len(g.Hyps))
	for i, h := range g.Hyps {
		hyps[i] = h.Form
	}
	flex := map[string]bool{}
	if r.solve([]rgoal{{hyps: hyps, concl: g.Concl}}, depth, flex, kernel.Subst{}) {
		return nil, nil
	}
	if r.nodes <= 0 {
		return nil, ErrTimeout
	}
	return nil, errAutoFails
}

// rgoal is an internal resolution goal.
type rgoal struct {
	hyps  []*kernel.Form
	concl *kernel.Form
}

type resolver struct {
	env   *kernel.Env
	eauto bool
	nodes int
	mc    kernel.MetaCounter
	rig   int // rigid fresh-variable counter
	ev    *kernel.Evaluator
	hints []hintEntry     // the hint database, resolved once per auto call
	sc    *kernel.Scratch // trial-substitution recycling (nil ok)
	buf   instantiated    // tryLemma's last metas and premises, dead once its goals are built
}

// cloneTrial takes a recycled trial substitution seeded with sub's bindings.
// Trials that fail — or whose bindings have been merged back with copySub —
// are dead and go back via r.sc.PutSubst.
func (r *resolver) cloneTrial(sub kernel.Subst) kernel.Subst {
	trial := r.sc.TrialSubst()
	copySub(trial, sub)
	return trial
}

// hintEntry is one resolved hint statement with its precomputed
// fully-stripped head key.
type hintEntry struct {
	stmt *kernel.Form
	key  string
}

// hintDB caches the resolved hint database per environment: solve visits
// the whole database at every resolution node, and the name lookups plus
// rule Statement construction are invariant for a given hint list. The
// loader grows an environment's hints as the development executes, so an
// entry is invalidated by hint-list length; declarations themselves are
// never replaced. Entries are immutable once stored, and a racing rebuild
// produces an identical entry, so concurrent searches may share them.
var hintDB sync.Map // *kernel.Env -> *hintDBEntry

type hintDBEntry struct {
	n     int
	hints []hintEntry
}

func hintsFor(env *kernel.Env) []hintEntry {
	if v, ok := hintDB.Load(env); ok {
		if e := v.(*hintDBEntry); e.n == len(env.HintOrder) {
			return e.hints
		}
	}
	hints := make([]hintEntry, 0, len(env.HintOrder))
	for _, name := range env.HintOrder {
		var stmt *kernel.Form
		if l, ok := env.Lemmas[name]; ok {
			stmt = l.Stmt
		} else if _, rule := env.RuleNamed(name); rule != nil {
			stmt = rule.Statement()
		} else {
			continue
		}
		hints = append(hints, hintEntry{stmt: stmt, key: stmtHeadKey(stmt)})
	}
	hintDB.Store(env, &hintDBEntry{n: len(env.HintOrder), hints: hints})
	return hints
}

// stmtHeadKey computes the head key of a statement's fully stripped
// conclusion without instantiating it: stripping binders and premises the
// way instantiate does never changes the conclusion's kind or predicate
// name, so the key of the uninstantiated statement is the key instantiate
// would produce (`~A` strips to `A -> False`, hence "F").
func stmtHeadKey(f *kernel.Form) string {
	for {
		switch f.Kind {
		case kernel.FForall:
			f = f.Body
		case kernel.FImpl:
			f = f.R
		case kernel.FNot:
			return "F"
		default:
			return headKey(f)
		}
	}
}

// headKey indexes a formula by its conclusion head for hint filtering.
func headKey(f *kernel.Form) string {
	switch f.Kind {
	case kernel.FPred:
		return "P:" + f.Pred
	case kernel.FEq:
		return "="
	case kernel.FFalse:
		return "F"
	case kernel.FTrue:
		return "T"
	case kernel.FNot:
		return "~"
	case kernel.FAnd:
		return "&"
	case kernel.FOr:
		return "|"
	case kernel.FIff:
		return "<>"
	default:
		return "?"
	}
}

func (r *resolver) solve(goals []rgoal, depth int, flex map[string]bool, sub kernel.Subst) bool {
	r.nodes--
	if r.nodes <= 0 {
		return false
	}
	if len(goals) == 0 {
		return true
	}
	g := goals[0]
	rest := goals[1:]
	concl := kernel.FullResolveFormS(g.concl, sub, r.sc)

	switch concl.Kind {
	case kernel.FTrue:
		return r.solve(rest, depth, flex, sub)
	case kernel.FForall:
		if concl.BType.IsType() {
			return r.solve(append([]rgoal{{hyps: g.hyps, concl: concl.Body}}, rest...), depth, flex, sub)
		}
		r.rig++
		fresh := kernel.V("!a" + itoa(r.rig))
		body := concl.Body.Subst1(concl.Binder, fresh)
		return r.solve(append([]rgoal{{hyps: g.hyps, concl: body}}, rest...), depth, flex, sub)
	case kernel.FImpl:
		ng := rgoal{hyps: append(append([]*kernel.Form{}, g.hyps...), concl.L), concl: concl.R}
		return r.solve(append([]rgoal{ng}, rest...), depth, flex, sub)
	case kernel.FNot:
		ng := rgoal{hyps: append(append([]*kernel.Form{}, g.hyps...), concl.L), concl: kernel.False()}
		return r.solve(append([]rgoal{ng}, rest...), depth, flex, sub)
	case kernel.FAnd:
		gs := append([]rgoal{{hyps: g.hyps, concl: concl.L}, {hyps: g.hyps, concl: concl.R}}, rest...)
		return r.solve(gs, depth, flex, sub)
	case kernel.FOr:
		trial := r.cloneTrial(sub)
		if r.solve(append([]rgoal{{hyps: g.hyps, concl: concl.L}}, rest...), depth, flex, trial) {
			copySub(sub, trial)
			r.sc.PutSubst(trial)
			return true
		}
		r.sc.PutSubst(trial)
		return r.solve(append([]rgoal{{hyps: g.hyps, concl: concl.R}}, rest...), depth, flex, sub)
	case kernel.FExists:
		if !r.eauto {
			return false
		}
		m := r.mc.Fresh(concl.Binder)
		flex[m] = true
		body := concl.Body.Subst1(concl.Binder, kernel.V(m))
		return r.solve(append([]rgoal{{hyps: g.hyps, concl: body}}, rest...), depth, flex, sub)
	}

	// Equality: try unification (and convertibility for ground sides).
	if concl.Kind == kernel.FEq {
		trial := r.cloneTrial(sub)
		if kernel.UnifyTerms(concl.T1, concl.T2, flex, trial) && r.solve(rest, depth, flex, trial) {
			copySub(sub, trial)
			r.sc.PutSubst(trial)
			return true
		}
		r.sc.PutSubst(trial)
		if t1, err := r.ev.Normalize(concl.T1); err == nil {
			if t2, err := r.ev.Normalize(concl.T2); err == nil {
				trial := r.cloneTrial(sub)
				if kernel.UnifyTerms(t1, t2, flex, trial) && r.solve(rest, depth, flex, trial) {
					copySub(sub, trial)
					r.sc.PutSubst(trial)
					return true
				}
				r.sc.PutSubst(trial)
			}
		}
	}

	// Assumption: unify against each hypothesis.
	for _, h := range g.hyps {
		trial := r.cloneTrial(sub)
		if kernel.UnifyForms(h, concl, flex, trial) && r.solve(rest, depth, flex, trial) {
			copySub(sub, trial)
			r.sc.PutSubst(trial)
			return true
		}
		r.sc.PutSubst(trial)
	}

	if depth <= 0 {
		return false
	}

	goalKey := headKey(concl)

	// Hypotheses with structure act as local hints.
	for _, h := range g.hyps {
		if h.Kind != kernel.FForall && h.Kind != kernel.FImpl {
			continue
		}
		if r.tryLemma(h, stmtHeadKey(h), g, rest, concl, goalKey, depth, flex, sub) {
			return true
		}
	}

	// The hint database (resolved once in tacAuto).
	for _, hint := range r.hints {
		if r.tryLemma(hint.stmt, hint.key, g, rest, concl, goalKey, depth, flex, sub) {
			return true
		}
	}
	return false
}

// tryLemma attempts one backward-chaining step with stmt, whose
// fully-stripped head key the caller supplies (precomputed for database
// hints). Non-matching hints are rejected before the instantiation
// substitution, but still consume a node so the search budget — and hence
// timeout behavior — is unchanged.
func (r *resolver) tryLemma(stmt *kernel.Form, key string, g rgoal, rest []rgoal, concl *kernel.Form, goalKey string, depth int, flex map[string]bool, sub kernel.Subst) bool {
	r.nodes--
	if r.nodes <= 0 {
		return false
	}
	if key != "?" && key != goalKey {
		return false
	}
	inst := instantiate(stmt, &r.mc, r.sc, flex, r.buf)
	r.buf = inst
	trial := r.cloneTrial(sub)
	if !kernel.UnifyForms(inst.concl, concl, flex, trial) {
		r.sc.PutSubst(trial)
		return false
	}
	if !r.eauto && !metasResolved(inst, trial, r.sc) {
		r.sc.PutSubst(trial)
		return false
	}
	newGoals := make([]rgoal, 0, len(inst.prems)+len(rest))
	for _, prem := range inst.prems {
		newGoals = append(newGoals, rgoal{hyps: g.hyps, concl: prem})
	}
	newGoals = append(newGoals, rest...)
	if r.solve(newGoals, depth-1, flex, trial) {
		copySub(sub, trial)
		r.sc.PutSubst(trial)
		return true
	}
	r.sc.PutSubst(trial)
	return false
}

func copySub(dst, src kernel.Subst) {
	for k, v := range src {
		dst[k] = v
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
