package tactic

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"llmfscq/internal/kernel"
)

// varBase picks a Coq-like base name for a fresh variable of a given type.
func varBase(ty *kernel.Type) string {
	if ty == nil {
		return "x"
	}
	if ty.TVar {
		return "a"
	}
	switch ty.Name {
	case "nat":
		return "n"
	case "list":
		return "l"
	case "bool":
		return "b"
	case "option":
		return "o"
	case "prod":
		return "p"
	default:
		r := strings.ToLower(ty.Name)
		if r == "" {
			return "x"
		}
		return r[:1]
	}
}

// caseNames resolves the names for one constructor's argument variables,
// honoring an `as [... | ...]` pattern alternative when present.
// caseNames resolves names for one constructor's argument variables; free
// is a name the split consumes (Coq reuses it: `induction l` names the
// tail l).
func caseNames(g *Goal, argTypes []*kernel.Type, alt []*IntroPattern, free string) ([]string, error) {
	used := g.usedNames()
	defer releaseNames(used)
	if free != "" {
		delete(used, free)
	}
	out := make([]string, len(argTypes))
	for i := range argTypes {
		if alt != nil && i < len(alt) && alt[i].Name != "" && alt[i].Name != "_" {
			if used[alt[i].Name] {
				return nil, fmt.Errorf("tactic: name %q already used", alt[i].Name)
			}
			used[alt[i].Name] = true
			out[i] = alt[i].Name
			continue
		}
		out[i] = kernel.FreshName(varBase(argTypes[i]), used)
	}
	return out, nil
}

// dataCaseSplit performs destruct/induction on a context variable of an
// inductive datatype. withIH controls IH generation.
func dataCaseSplit(env *kernel.Env, g *Goal, x string, withIH bool, pat *IntroPattern, sc *kernel.Scratch) ([]*Goal, error) {
	ty, ok := g.VarType(x)
	if !ok {
		return nil, fmt.Errorf("tactic: no variable %q in context", x)
	}
	if ty.TVar {
		return nil, fmt.Errorf("tactic: variable %q has abstract type %s", x, ty)
	}
	dt, ok := env.Datatypes[ty.Name]
	if !ok {
		return nil, fmt.Errorf("tactic: type %s of %q is not an inductive datatype", ty, x)
	}
	if withIH {
		for _, h := range g.Hyps {
			if h.Form.HasFreeVar(x) {
				return nil, dependsError{x: x, hyp: h.Name}
			}
		}
	}
	var out []*Goal
	for ci, c := range dt.Constructors {
		argTypes := kernel.InstantiateConstructorTypes(dt, c, ty)
		var alt []*IntroPattern
		if pat != nil && len(pat.Alts) == len(dt.Constructors) {
			alt = pat.Alts[ci]
		}
		names, err := caseNames(g, argTypes, alt, x)
		if err != nil {
			return nil, err
		}
		args := make([]*kernel.Term, len(names))
		for i, n := range names {
			args[i] = kernel.V(n)
		}
		pattern := kernel.A(c.Name, args...)
		ihs := 0
		if withIH {
			for _, at := range argTypes {
				if recursivePos(at, ty) {
					ihs++
				}
			}
		}
		ng := g.substVar(x, pattern, len(names), ihs, sc)
		// Insert the new variables.
		for i, n := range names {
			ng.Vars = append(ng.Vars, kernel.TypedVar{Name: n, Type: argTypes[i]})
		}
		if ihs > 0 {
			usedH := ng.usedNames()
			for i, at := range argTypes {
				if !recursivePos(at, ty) {
					continue
				}
				ihName := kernel.FreshName("IH"+x, usedH)
				ih := g.Concl.Subst1(x, kernel.V(names[i]))
				ng.Hyps = append(ng.Hyps, Hyp{Name: ihName, Form: ih})
			}
			releaseNames(usedH)
		}
		out = append(out, ng)
	}
	return out, nil
}

// recursivePos reports whether a constructor argument of type at is a
// recursive position of a split on type ty, and so gets an induction
// hypothesis. Recursive positions are arguments of exactly the split type:
// the same head with different parameters (e.g. a list (prod nat nat)
// element of a list of lists) is NOT recursive.
func recursivePos(at, ty *kernel.Type) bool { return !at.TVar && at.Equal(ty) }

// dependsError rejects induction on a variable a hypothesis mentions. The
// search reads only the status, so the text is rendered when asked for.
type dependsError struct{ x, hyp string }

func (e dependsError) Error() string {
	return "tactic: cannot perform induction on " + strconv.Quote(e.x) + ": hypothesis " + e.hyp + " depends on it (revert it first)"
}

// introUpTo introduces leading binders until variable x is in context
// (supports `induction x` on a not-yet-introduced variable).
func introUpTo(env *kernel.Env, g *Goal, x string) (*Goal, error) {
	cur := g
	for {
		if _, ok := cur.VarType(x); ok {
			return cur, nil
		}
		if cur.Concl.Kind != kernel.FForall {
			return nil, fmt.Errorf("tactic: no variable %q", x)
		}
		binder := cur.Concl.Binder
		next, err := tacIntro(env, cur, "")
		if err != nil {
			return nil, err
		}
		cur = next[0]
		if binder == x {
			// The intro kept the binder's name unless it collided.
			if _, ok := cur.VarType(x); ok {
				return cur, nil
			}
			return nil, fmt.Errorf("tactic: variable name %q collides with an existing name", x)
		}
	}
}

func tacInduction(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
	if len(c.Idents) != 1 {
		return nil, errors.New("tactic: induction expects one variable")
	}
	x := c.Idents[0]
	if h, ok := g.HypNamed(x); ok {
		return ruleInduction(env, g, h)
	}
	cur := g
	if _, ok := cur.VarType(x); !ok {
		ng, err := introUpTo(env, cur, x)
		if err != nil {
			return nil, err
		}
		cur = ng
	}
	return dataCaseSplit(env, cur, x, true, c.Pattern, sc)
}

// ruleInduction is induction on a derivation: a hypothesis H : P t1..tk of
// an inductive predicate. Index positions whose argument is a context
// variable occurring nowhere else are generalized (the motive abstracts
// them); the remaining positions are kept fixed, which requires the rule
// conclusions to carry a plain variable there (true of parameter positions
// like the first argument of `le`).
func ruleInduction(env *kernel.Env, g *Goal, h Hyp) ([]*Goal, error) {
	if h.Form.Kind != kernel.FPred {
		return nil, fmt.Errorf("tactic: cannot induct on %s : %s", h.Name, h.Form)
	}
	p, ok := env.Preds[h.Form.Pred]
	if !ok {
		return nil, fmt.Errorf("tactic: %q is not an inductive predicate", h.Form.Pred)
	}
	args := h.Form.Args
	// Classify argument positions.
	gen := make([]bool, len(args))
	seen := map[string]int{}
	for i, a := range args {
		if !a.IsVar() {
			continue
		}
		v := a.Var
		if _, isCtx := g.VarType(v); !isCtx {
			continue
		}
		if j, dup := seen[v]; dup {
			gen[j] = false
			continue
		}
		seen[v] = i
		usedElsewhere := false
		for _, other := range g.Hyps {
			if other.Name != h.Name && other.Form.HasFreeVar(v) {
				usedElsewhere = true
				break
			}
		}
		gen[i] = !usedElsewhere
	}
	base := g.RemoveHyp(h.Name)
	C := base.Concl

	var out []*Goal
	for ri := range p.Rules {
		r := &p.Rules[ri]
		if len(r.ConclArgs) != len(args) {
			return nil, fmt.Errorf("tactic: arity mismatch in rule %s", r.Name)
		}
		// Freshen rule variables.
		used := base.usedNames()
		ren := make(kernel.Subst, len(r.Vars))
		var freshVars []kernel.TypedVar
		for _, v := range r.Vars {
			f := kernel.FreshName(v.Name, used)
			ren[v.Name] = kernel.V(f)
			freshVars = append(freshVars, kernel.TypedVar{Name: f, Type: v.Type})
		}
		releaseNames(used)
		flex := map[string]bool{}
		for _, v := range freshVars {
			flex[v.Name] = true
		}
		sub := kernel.Subst{}
		feasible := true
		skip := false
		// Bind fixed positions.
		for i := range args {
			if gen[i] {
				continue
			}
			ca := kernel.Resolve(r.ConclArgs[i].ApplySubst(ren), sub)
			if ca.IsVar() && flex[ca.Var] {
				sub[ca.Var] = args[i]
				continue
			}
			if ca.Equal(args[i]) {
				continue
			}
			// Distinct constructors at a fixed index: the rule can never
			// have derived this hypothesis, so it contributes no case.
			if ca.IsApp() && args[i].IsApp() &&
				env.IsConstructor(ca.Fun) && env.IsConstructor(args[i].Fun) && ca.Fun != args[i].Fun {
				skip = true
				break
			}
			// The rule specializes a fixed index in a way we cannot track.
			feasible = false
			break
		}
		if skip {
			continue
		}
		if !feasible {
			return nil, fmt.Errorf("tactic: cannot induct on %s: rule %s specializes a fixed index (revert first the hypotheses that mention its indices)", h.Name, r.Name)
		}
		ng := &Goal{Concl: nil}
		// Context: original vars minus generalized ones, plus unbound rule vars.
		for _, v := range base.Vars {
			skip := false
			for i, a := range args {
				if gen[i] && a.IsVar() && a.Var == v.Name {
					skip = true
					break
				}
			}
			if !skip {
				ng.Vars = append(ng.Vars, v)
			}
		}
		for _, v := range freshVars {
			if _, bound := sub[v.Name]; !bound {
				ng.Vars = append(ng.Vars, v)
			}
		}
		ng.Hyps = append(ng.Hyps, base.Hyps...)
		// Motive instantiation helper: C with generalized positions mapped.
		motive := func(target []*kernel.Term) *kernel.Form {
			s := kernel.Subst{}
			for i, a := range args {
				if gen[i] && a.IsVar() {
					s[a.Var] = target[i]
				}
			}
			return C.SubstTerm(s)
		}
		usedH := ng.usedNames()
		for _, prem := range r.Prems {
			pf := kernel.FullResolveForm(prem.SubstTerm(ren), sub)
			ng.Hyps = append(ng.Hyps, Hyp{Name: ng.FreshHypName(usedH), Form: pf})
			if pf.Kind == kernel.FPred && pf.Pred == p.Name && len(pf.Args) == len(args) {
				ihName := kernel.FreshName("IH"+p.Name, usedH)
				ng.Hyps = append(ng.Hyps, Hyp{Name: ihName, Form: motive(pf.Args)})
			}
		}
		releaseNames(usedH)
		conclArgs := make([]*kernel.Term, len(args))
		for i := range args {
			conclArgs[i] = kernel.FullResolve(r.ConclArgs[i].ApplySubst(ren), sub)
		}
		ng.Concl = motive(conclArgs)
		out = append(out, ng)
	}
	return out, nil
}

func tacDestruct(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
	if len(c.Terms) == 1 && len(c.Idents) == 0 {
		t, err := resolveGoalTerm(env, g, c.Terms[0])
		if err != nil {
			return nil, err
		}
		if t.IsVar() {
			c.Idents = []string{t.Var}
		} else {
			return destructTerm(env, g, t, c.EqnName, c.Pattern)
		}
	}
	if len(c.Idents) != 1 {
		return nil, errors.New("tactic: destruct expects one name")
	}
	name := c.Idents[0]
	if h, ok := g.HypNamed(name); ok {
		return destructHyp(env, g, h, c.Pattern)
	}
	cur := g
	if _, ok := cur.VarType(name); !ok {
		ng, err := introUpTo(env, cur, name)
		if err != nil {
			return nil, err
		}
		cur = ng
	}
	return dataCaseSplit(env, cur, name, false, c.Pattern, sc)
}

// inferType infers the type of a term from context variables, function
// return types, and constructor datatypes (parameters stay abstract).
func inferType(env *kernel.Env, g *Goal, t *kernel.Term) (*kernel.Type, error) {
	switch {
	case t == nil:
		return nil, errors.New("tactic: cannot type nil term")
	case t.IsVar():
		if ty, ok := g.VarType(t.Var); ok {
			return ty, nil
		}
		return nil, fmt.Errorf("tactic: unknown variable %q", t.Var)
	case t.Match != nil:
		return nil, errors.New("tactic: cannot infer the type of a match")
	default:
		if fd, ok := env.Funs[t.Fun]; ok {
			return fd.RetType, nil
		}
		if dt, ok := env.ConstrData[t.Fun]; ok {
			args := make([]*kernel.Type, len(dt.Params))
			for i, p := range dt.Params {
				args[i] = kernel.TyVar(p)
			}
			return kernel.Ty(dt.Name, args...), nil
		}
		return nil, fmt.Errorf("tactic: unknown head %q", t.Fun)
	}
}

// destructTerm performs case analysis on an arbitrary term: each subgoal
// replaces the term's occurrences in the conclusion by one constructor
// pattern; with `eqn:H` an equation hypothesis is added.
func destructTerm(env *kernel.Env, g *Goal, t *kernel.Term, eqn string, pat *IntroPattern) ([]*Goal, error) {
	ty, err := inferType(env, g, t)
	if err != nil {
		return nil, err
	}
	if ty == nil || ty.TVar {
		return nil, errors.New("tactic: term has abstract type")
	}
	dt, ok := env.Datatypes[ty.Name]
	if !ok {
		return nil, fmt.Errorf("tactic: type %s is not an inductive datatype", ty)
	}
	var out []*Goal
	for ci, c := range dt.Constructors {
		argTypes := kernel.InstantiateConstructorTypes(dt, c, ty)
		var alt []*IntroPattern
		if pat != nil && len(pat.Alts) == len(dt.Constructors) {
			alt = pat.Alts[ci]
		}
		names, err := caseNames(g, argTypes, alt, "")
		if err != nil {
			return nil, err
		}
		args := make([]*kernel.Term, len(names))
		for i, n := range names {
			args[i] = kernel.V(n)
		}
		pattern := kernel.A(c.Name, args...)
		ng := g.Clone()
		for i, n := range names {
			ng.Vars = append(ng.Vars, kernel.TypedVar{Name: n, Type: argTypes[i]})
		}
		newConcl, _ := kernel.ReplaceAllForm(ng.Concl, t, pattern)
		// Reduce the matches exposed by the case split (destruct+simpl).
		ev := kernel.NewEvaluator(env)
		if norm, err := ev.NormalizeForm(newConcl); err == nil {
			newConcl = norm
		}
		ng.Concl = newConcl
		if eqn != "" {
			used := ng.usedNames()
			taken := used[eqn]
			releaseNames(used)
			if taken {
				return nil, fmt.Errorf("tactic: name %q already used", eqn)
			}
			ng.Hyps = append(ng.Hyps, Hyp{Name: eqn, Form: kernel.Eq(t, pattern)})
		}
		out = append(out, ng)
	}
	return out, nil
}

// destructHyp destructures a logical hypothesis, honoring intro patterns.
func destructHyp(env *kernel.Env, g *Goal, h Hyp, pat *IntroPattern) ([]*Goal, error) {
	base := g.RemoveHyp(h.Name)
	switch h.Form.Kind {
	case kernel.FAnd:
		var p1, p2 *IntroPattern
		if pat != nil && len(pat.Alts) == 1 && len(pat.Alts[0]) == 2 {
			p1, p2 = pat.Alts[0][0], pat.Alts[0][1]
		}
		return destructConj(env, base, h.Form.L, h.Form.R, p1, p2)
	case kernel.FIff:
		ng := base.Clone()
		used := ng.usedNames()
		defer releaseNames(used)
		n1 := ng.FreshHypName(used)
		ng.Hyps = append(ng.Hyps, Hyp{Name: n1, Form: kernel.Impl(h.Form.L, h.Form.R)})
		n2 := ng.FreshHypName(used)
		ng.Hyps = append(ng.Hyps, Hyp{Name: n2, Form: kernel.Impl(h.Form.R, h.Form.L)})
		return []*Goal{ng}, nil
	case kernel.FOr:
		var p1, p2 *IntroPattern
		if pat != nil && len(pat.Alts) == 2 {
			if len(pat.Alts[0]) == 1 {
				p1 = pat.Alts[0][0]
			}
			if len(pat.Alts[1]) == 1 {
				p2 = pat.Alts[1][0]
			}
		}
		g1, err := addHypPat(env, base, h.Form.L, p1)
		if err != nil {
			return nil, err
		}
		g2, err := addHypPat(env, base, h.Form.R, p2)
		if err != nil {
			return nil, err
		}
		return append(g1, g2...), nil
	case kernel.FExists:
		ng := base.Clone()
		used := ng.usedNames()
		defer releaseNames(used)
		varName := ""
		var bodyPat *IntroPattern
		if pat != nil && len(pat.Alts) == 1 && len(pat.Alts[0]) == 2 {
			if pat.Alts[0][0].Name != "" {
				varName = pat.Alts[0][0].Name
			}
			bodyPat = pat.Alts[0][1]
		}
		if varName == "" {
			varName = kernel.FreshName(h.Form.Binder, used)
		} else if used[varName] {
			return nil, fmt.Errorf("tactic: name %q already used", varName)
		} else {
			used[varName] = true
		}
		ng.Vars = append(ng.Vars, kernel.TypedVar{Name: varName, Type: h.Form.BType})
		body := h.Form.Body.Subst1(h.Form.Binder, kernel.V(varName))
		return addHypPat(env, ng, body, bodyPat)
	case kernel.FFalse:
		return nil, nil
	case kernel.FTrue:
		return []*Goal{base}, nil
	default:
		return nil, fmt.Errorf("tactic: cannot destruct hypothesis %s : %s", h.Name, h.Form)
	}
}

// destructConj splits a conjunction into two hypotheses, recursing into
// nested patterns.
func destructConj(env *kernel.Env, g *Goal, l, r *kernel.Form, p1, p2 *IntroPattern) ([]*Goal, error) {
	goals, err := addHypPat(env, g, l, p1)
	if err != nil {
		return nil, err
	}
	var out []*Goal
	for _, sg := range goals {
		next, err := addHypPat(env, sg, r, p2)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
	}
	return out, nil
}

// addHypPat adds a formula as a hypothesis, destructuring through a nested
// intro pattern when one is given.
func addHypPat(env *kernel.Env, g *Goal, f *kernel.Form, pat *IntroPattern) ([]*Goal, error) {
	if pat != nil && pat.Name == "" {
		// Nested pattern: add under a temp name, then destruct it.
		ng := g.Clone()
		used := ng.usedNames()
		defer releaseNames(used)
		tmp := ng.FreshHypName(used)
		ng.Hyps = append(ng.Hyps, Hyp{Name: tmp, Form: f})
		h, _ := ng.HypNamed(tmp)
		return destructHyp(env, ng, h, pat)
	}
	ng := g.Clone()
	used := ng.usedNames()
	defer releaseNames(used)
	name := ""
	if pat != nil && pat.Name != "" && pat.Name != "_" {
		name = pat.Name
		if used[name] {
			return nil, fmt.Errorf("tactic: name %q already used", name)
		}
	} else {
		name = ng.FreshHypName(used)
	}
	ng.Hyps = append(ng.Hyps, Hyp{Name: name, Form: f})
	return []*Goal{ng}, nil
}
