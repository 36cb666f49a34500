package tactic

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"llmfscq/internal/kernel"
	"llmfscq/internal/syntax"
)

// ErrTimeout is reported when a tactic exceeds its computation budget — the
// analogue of the paper's 5-second per-tactic limit.
var ErrTimeout = errors.New("tactic: computation budget exceeded")

// Shared rejections of assumption and reflexivity: a rejection need not
// allocate (see apply.go).
var (
	errNoAssumption   = errors.New("tactic: no matching assumption")
	errNotConvertible = errors.New("tactic: terms are not convertible")
	errIffSidesDiffer = errors.New("tactic: sides of iff differ")
	errNotEquality    = errors.New("tactic: goal is not an equality")
)

// IsTimeout classifies budget-exhaustion errors (including kernel fuel).
func IsTimeout(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, kernel.ErrFuel)
}

// maxRepeat bounds `repeat t` iterations.
const maxRepeat = 64

// Apply runs a tactic expression against the focused goal of the state and
// returns the successor state. The input state is never mutated.
func Apply(s *State, e Expr) (*State, error) { return ApplyS(s, e, nil) }

// ApplyS is Apply with a per-search scratch arena for the transient buffers
// of the unification/substitution inner loop (sc may be nil). Nothing a
// tactic returns aliases scratch memory, so one Scratch may be reused across
// every sentence a search worker executes.
func ApplyS(s *State, e Expr, sc *kernel.Scratch) (*State, error) {
	if s.Done() {
		return nil, errors.New("tactic: no goals remaining")
	}
	subgoals, err := applyExpr(s.Env, s.Goals[0], e, sc)
	if err != nil {
		return nil, err
	}
	return s.withGoals(subgoals), nil
}

// parsed is one memoized ParseOne outcome (failures are memoized too: junk
// candidates repeat across searches just like real ones).
type parsed struct {
	e   Expr
	err error
}

// parseMemo caches ParseOne by sentence text, like the hint database in
// auto.go. Sound because parsing is a pure function of the sentence and
// Expr trees are read-only after parsing: the interpreter receives Call
// nodes by value and never writes through a shared node. The candidate
// vocabulary is bounded by the corpus (retrieval pool, n-gram idioms, junk
// over corpus names), so the memo's size is bounded too.
var parseMemo sync.Map // string -> parsed

// ApplySentence parses one tactic sentence (memoized — the search executes
// the same few sentences against many states) and applies it.
func ApplySentence(s *State, sentence string) (*State, error) {
	return ApplySentenceS(s, sentence, nil)
}

// ApplySentenceS is ApplySentence with a scratch arena (sc may be nil).
func ApplySentenceS(s *State, sentence string, sc *kernel.Scratch) (*State, error) {
	var p parsed
	if v, ok := parseMemo.Load(sentence); ok {
		p = v.(parsed)
	} else {
		p.e, p.err = ParseOne(sentence)
		parseMemo.Store(sentence, p)
	}
	if p.err != nil {
		return nil, p.err
	}
	return ApplyS(s, p.e, sc)
}

// RunScript checks a whole proof script against stmt, sentence by sentence.
// It returns the final state (which must be Done for a complete proof).
func RunScript(env *kernel.Env, stmt *kernel.Form, script string) (*State, error) {
	exprs, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	s := NewState(env, stmt)
	for i, e := range exprs {
		if s.Done() {
			return nil, fmt.Errorf("tactic: sentence %d (%s): no goals remaining", i+1, ExprString(e))
		}
		ns, err := Apply(s, e)
		if err != nil {
			return nil, fmt.Errorf("tactic: sentence %d (%s): %w", i+1, ExprString(e), err)
		}
		s = ns
	}
	return s, nil
}

// CheckProof verifies that script completely proves stmt.
func CheckProof(env *kernel.Env, stmt *kernel.Form, script string) error {
	s, err := RunScript(env, stmt, script)
	if err != nil {
		return err
	}
	if !s.Done() {
		return incompleteError{s}
	}
	return nil
}

// incompleteError rejects a script that leaves goals open. A whole-proof
// check reads only whether there was an error, so the focused goal is
// rendered when the text is asked for: a single-pointer struct goes into an
// interface without allocating, and the state it holds is immutable.
type incompleteError struct{ s *State }

func (e incompleteError) Error() string {
	return fmt.Sprintf("tactic: proof incomplete, %d goal(s) remain; focused:\n%s", len(e.s.Goals), e.s.Goals[0])
}

func applyExpr(env *kernel.Env, g *Goal, e Expr, sc *kernel.Scratch) ([]*Goal, error) {
	switch t := e.(type) {
	case Seq:
		firsts, err := applyExpr(env, g, t.First, sc)
		if err != nil {
			return nil, err
		}
		// Most tactics keep or shrink the goal count, so len(firsts) is the
		// common final size.
		out := make([]*Goal, 0, len(firsts))
		for _, sub := range firsts {
			next, err := applyExpr(env, sub, t.Then, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, next...)
		}
		return out, nil
	case Dispatch:
		firsts, err := applyExpr(env, g, t.First, sc)
		if err != nil {
			return nil, err
		}
		if len(firsts) != len(t.Branches) {
			return nil, fmt.Errorf("tactic: dispatch expects %d goals, got %d", len(t.Branches), len(firsts))
		}
		out := make([]*Goal, 0, len(firsts))
		for i, sub := range firsts {
			if t.Branches[i] == nil {
				out = append(out, sub)
				continue
			}
			next, err := applyExpr(env, sub, t.Branches[i], sc)
			if err != nil {
				return nil, err
			}
			out = append(out, next...)
		}
		return out, nil
	case Alt:
		if out, err := applyExpr(env, g, t.A, sc); err == nil {
			return out, nil
		}
		return applyExpr(env, g, t.B, sc)
	case Try:
		out, err := applyExpr(env, g, t.T, sc)
		if err != nil {
			return []*Goal{g}, nil
		}
		return out, nil
	case Repeat:
		cur := []*Goal{g}
		for i := 0; i < maxRepeat; i++ {
			progressed := false
			next := make([]*Goal, 0, len(cur))
			for _, sub := range cur {
				res, err := applyExpr(env, sub, t.T, sc)
				if err != nil {
					next = append(next, sub)
					continue
				}
				if len(res) == 1 && res[0].FingerprintKey() == sub.FingerprintKey() {
					next = append(next, sub)
					continue
				}
				progressed = true
				next = append(next, res...)
			}
			cur = next
			if !progressed {
				break
			}
		}
		return cur, nil
	case Call:
		v, ok := verbs[t.Name]
		if !ok {
			return nil, fmt.Errorf("tactic: unknown tactic %q", t.Name)
		}
		return v.run(env, g, t, sc)
	}
	return nil, fmt.Errorf("tactic: unknown expression %T", e)
}

// Verb is one entry of the tactic table: how a tactic runs, and the two
// facts about its arguments that the corpus checks read.
type Verb struct {
	run tacFunc
	// NamesTarget: the call applies only when its first identifier, if it
	// has one, names a global or a hypothesis in scope.
	NamesTarget bool
	// SweepsHyps: the tactic may use a hypothesis it never names.
	SweepsHyps bool
}

// tacFunc runs one tactic call on goal g.
type tacFunc func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error)

// onGoal adapts a tactic that takes no arguments.
func onGoal(f func(env *kernel.Env, g *Goal) ([]*Goal, error)) tacFunc {
	return func(env *kernel.Env, g *Goal, _ Call, _ *kernel.Scratch) ([]*Goal, error) { return f(env, g) }
}

// verbs is the tactic table: the checker accepts a call exactly when its
// name is here. A verb no corpus proof uses and the model cannot emit does
// not belong here (internal/model's TestTacticTableMatchesCallers).
var verbs = map[string]Verb{
	"intro": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacIntro(env, g, firstIdent(c))
	}},
	"intros": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacIntros(env, g, c.Idents)
	}},
	"assumption":  {SweepsHyps: true, run: onGoal(tacAssumption)},
	"eassumption": {SweepsHyps: true, run: onGoal(tacAssumption)},
	"split":       {run: onGoal(tacSplit)},
	"left": {run: func(env *kernel.Env, g *Goal, _ Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacLeftRight(env, g, true)
	}},
	"right": {run: func(env *kernel.Env, g *Goal, _ Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacLeftRight(env, g, false)
	}},
	"exists": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacExists(env, g, c.Terms)
	}},
	"exfalso": {run: onGoal(tacExfalso)},
	"revert": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacRevert(env, g, c.Idents)
	}},
	"subst": {SweepsHyps: true, run: func(env *kernel.Env, g *Goal, _ Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacSubst(env, g, sc)
	}},
	"simpl": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacSimpl(env, g, c.InHyp)
	}},
	"unfold": {NamesTarget: true, run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacUnfold(env, g, c.Idents, c.InHyp)
	}},
	"reflexivity": {run: onGoal(tacReflexivity)},
	"symmetry": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacSymmetry(env, g, c.InHyp)
	}},
	"f_equal":       {run: onGoal(tacFEqual)},
	"contradiction": {SweepsHyps: true, run: onGoal(tacContradiction)},
	// Bare discriminate scans every hypothesis for a clash.
	"discriminate": {SweepsHyps: true, run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		return tacDiscriminate(env, g, firstIdent(c))
	}},
	"assert": {run: func(env *kernel.Env, g *Goal, c Call, _ *kernel.Scratch) ([]*Goal, error) {
		if len(c.Forms) != 1 {
			return nil, errors.New("tactic: assert expects one formula")
		}
		return tacAssert(env, g, c.Forms[0], c.Idents)
	}},
	"apply": {NamesTarget: true, run: func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacApply(env, g, c, false, sc)
	}},
	"eapply": {NamesTarget: true, run: func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacApply(env, g, c, true, sc)
	}},
	"constructor": {run: func(env *kernel.Env, g *Goal, _ Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacConstructor(env, g, false, sc)
	}},
	"econstructor": {run: func(env *kernel.Env, g *Goal, _ Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacConstructor(env, g, true, sc)
	}},
	"destruct":  {NamesTarget: true, run: tacDestruct},
	"induction": {NamesTarget: true, run: tacInduction},
	"rewrite":   {NamesTarget: true, run: tacRewrite},
	"inversion": {NamesTarget: true, run: func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
		if len(c.Idents) != 1 {
			return nil, errors.New("tactic: inversion expects a hypothesis name")
		}
		return tacInversion(env, g, c.Idents[0], sc)
	}},
	"auto": {SweepsHyps: true, run: func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacAuto(env, g, c.Num, false, sc)
	}},
	"eauto": {SweepsHyps: true, run: func(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacAuto(env, g, c.Num, true, sc)
	}},
	"trivial": {SweepsHyps: true, run: func(env *kernel.Env, g *Goal, _ Call, sc *kernel.Scratch) ([]*Goal, error) {
		return tacAuto(env, g, 1, false, sc)
	}},
	"omega":      {SweepsHyps: true, run: onGoal(tacLia)},
	"congruence": {SweepsHyps: true, run: onGoal(tacCongruence)},
}

// Lookup returns the table entry of the tactic named name.
func Lookup(name string) (Verb, bool) {
	v, ok := verbs[name]
	return v, ok
}

// Verbs lists the table's tactic names, sorted.
func Verbs() []string {
	names := make([]string, 0, len(verbs))
	for name := range verbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// firstIdent is a call's first identifier argument, or "".
func firstIdent(c Call) string {
	if len(c.Idents) > 0 {
		return c.Idents[0]
	}
	return ""
}

// ---------------------------------------------------------------------------
// Introduction forms

// introInto performs one introduction step by mutating ng in place. ng must
// be a fresh un-shared clone (Clone leaves the identity memos empty, so
// in-place edits are safe until the goal escapes). used is maintained
// incrementally: each introduction adds exactly one name, and every free
// variable the step exposes was already free in the conclusion.
func introInto(ng *Goal, name string, used map[string]bool) error {
	switch ng.Concl.Kind {
	case kernel.FForall:
		n := name
		if n == "" {
			n = kernel.FreshName(ng.Concl.Binder, used)
		} else if used[n] {
			return fmt.Errorf("tactic: name %q already used", n)
		}
		used[n] = true
		ng.Vars = append(ng.Vars, kernel.TypedVar{Name: n, Type: ng.Concl.BType})
		ng.Concl = ng.Concl.Body.Subst1(ng.Concl.Binder, kernel.V(n))
		return nil
	case kernel.FImpl:
		n := name
		if n == "" {
			n = ng.FreshHypName(used)
		} else if used[n] {
			return fmt.Errorf("tactic: name %q already used", n)
		}
		used[n] = true
		ng.Hyps = append(ng.Hyps, Hyp{Name: n, Form: ng.Concl.L})
		ng.Concl = ng.Concl.R
		return nil
	case kernel.FNot:
		n := name
		if n == "" {
			n = ng.FreshHypName(used)
		} else if used[n] {
			return fmt.Errorf("tactic: name %q already used", n)
		}
		used[n] = true
		ng.Hyps = append(ng.Hyps, Hyp{Name: n, Form: ng.Concl.L})
		ng.Concl = kernel.False()
		return nil
	}
	return errors.New("tactic: nothing to introduce")
}

func tacIntro(env *kernel.Env, g *Goal, name string) ([]*Goal, error) {
	ng := g.Clone()
	used := g.usedNames()
	defer releaseNames(used)
	if err := introInto(ng, name, used); err != nil {
		return nil, err
	}
	return []*Goal{ng}, nil
}

func tacIntros(env *kernel.Env, g *Goal, names []string) ([]*Goal, error) {
	if len(names) == 0 {
		// Bare `intros` introduces syntactic products only; it does not
		// unfold `~` (matching Coq, where `intro` delta-reduces `not` but
		// `intros` stops at the first non-product). A no-op `intros`
		// succeeds without cloning.
		if g.Concl.Kind != kernel.FForall && g.Concl.Kind != kernel.FImpl {
			return []*Goal{g}, nil
		}
		used := g.usedNames()
		defer releaseNames(used)
		ng := g.Clone()
		for ng.Concl.Kind == kernel.FForall || ng.Concl.Kind == kernel.FImpl {
			if err := introInto(ng, "", used); err != nil {
				return nil, err
			}
		}
		return []*Goal{ng}, nil
	}
	used := g.usedNames()
	defer releaseNames(used)
	ng := g.Clone()
	for _, n := range names {
		if err := introInto(ng, n, used); err != nil {
			return nil, err
		}
	}
	return []*Goal{ng}, nil
}

// ---------------------------------------------------------------------------
// Closing tactics

func tacAssumption(env *kernel.Env, g *Goal) ([]*Goal, error) {
	want := g.Concl.FingerprintKey()
	for _, h := range g.Hyps {
		if h.Form.FingerprintKey() == want {
			return nil, nil
		}
	}
	return nil, errNoAssumption
}

func tacSplit(env *kernel.Env, g *Goal) ([]*Goal, error) {
	switch g.Concl.Kind {
	case kernel.FAnd:
		g1 := g.Clone()
		g1.Concl = g.Concl.L
		g2 := g.Clone()
		g2.Concl = g.Concl.R
		return []*Goal{g1, g2}, nil
	case kernel.FIff:
		g1 := g.Clone()
		g1.Concl = kernel.Impl(g.Concl.L, g.Concl.R)
		g2 := g.Clone()
		g2.Concl = kernel.Impl(g.Concl.R, g.Concl.L)
		return []*Goal{g1, g2}, nil
	case kernel.FTrue:
		return nil, nil
	}
	return nil, errors.New("tactic: split expects a conjunction, iff, or True")
}

func tacLeftRight(env *kernel.Env, g *Goal, left bool) ([]*Goal, error) {
	if g.Concl.Kind != kernel.FOr {
		return nil, errors.New("tactic: goal is not a disjunction")
	}
	ng := g.Clone()
	if left {
		ng.Concl = g.Concl.L
	} else {
		ng.Concl = g.Concl.R
	}
	return []*Goal{ng}, nil
}

func tacExfalso(env *kernel.Env, g *Goal) ([]*Goal, error) {
	ng := g.Clone()
	ng.Concl = kernel.False()
	return []*Goal{ng}, nil
}

func tacExists(env *kernel.Env, g *Goal, witnesses []*kernel.Term) ([]*Goal, error) {
	if len(witnesses) == 0 {
		return nil, errors.New("tactic: exists expects a witness")
	}
	cur := g
	for _, w := range witnesses {
		if cur.Concl.Kind != kernel.FExists {
			return nil, errors.New("tactic: goal is not existential")
		}
		rt, err := resolveGoalTerm(env, cur, w)
		if err != nil {
			return nil, err
		}
		ng := cur.Clone()
		ng.Concl = cur.Concl.Body.Subst1(cur.Concl.Binder, rt)
		cur = ng
	}
	return []*Goal{cur}, nil
}

// resolveGoalTerm resolves a parsed term argument against the environment
// with the goal's variables bound, and rejects stray identifiers.
func resolveGoalTerm(env *kernel.Env, g *Goal, t *kernel.Term) (*kernel.Term, error) {
	bound := map[string]bool{}
	for _, v := range g.Vars {
		bound[v.Name] = true
	}
	rt, err := syntax.ResolveTerm(env, t, bound)
	if err != nil {
		return nil, err
	}
	var buf [16]string
	if v := firstUnbound(rt.AppendFree(buf[:0]), bound); v != "" {
		return nil, fmt.Errorf("tactic: unknown identifier %q in term argument", v)
	}
	return rt, nil
}

// firstUnbound returns the first of the free occurrences names that bound
// lacks, or "". Rejections name it: the leftmost stray identifier, so the
// same sentence on the same goal always answers the same text.
func firstUnbound(names []string, bound map[string]bool) string {
	for _, v := range names {
		if !bound[v] {
			return v
		}
	}
	return ""
}

// resolveGoalForm resolves a parsed formula argument likewise.
func resolveGoalForm(env *kernel.Env, g *Goal, f *kernel.Form) (*kernel.Form, error) {
	bound := map[string]bool{}
	for _, v := range g.Vars {
		bound[v.Name] = true
	}
	rf, err := syntax.ResolveForm(env, f, bound)
	if err != nil {
		return nil, err
	}
	if firstUnbound(rf.FreeNames(), bound) != "" {
		return nil, fmt.Errorf("tactic: unknown identifier %q in formula argument", firstUnbound(rf.AppendFree(nil), bound))
	}
	return rf, nil
}

// ---------------------------------------------------------------------------
// Context management

func tacRevert(env *kernel.Env, g *Goal, names []string) ([]*Goal, error) {
	if len(names) == 0 {
		return nil, errors.New("tactic: revert expects names")
	}
	cur := g
	// `revert x y` generalizes with x outermost: process right-to-left.
	for i := len(names) - 1; i >= 0; i-- {
		n := names[i]
		next, err := revertOne(cur, n)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return []*Goal{cur}, nil
}

func revertOne(g *Goal, n string) (*Goal, error) {
	if h, ok := g.HypNamed(n); ok {
		ng := g.RemoveHyp(n)
		ng.Concl = kernel.Impl(h.Form, ng.Concl)
		return ng, nil
	}
	if ty, ok := g.VarType(n); ok {
		for _, h := range g.Hyps {
			if h.Form.HasFreeVar(n) {
				return nil, fmt.Errorf("tactic: cannot revert %q, hypothesis %s depends on it", n, h.Name)
			}
		}
		ng := g.Clone()
		vars := ng.Vars[:0]
		for _, v := range ng.Vars {
			if v.Name != n {
				vars = append(vars, v)
			}
		}
		ng.Vars = vars
		ng.Concl = kernel.Forall(n, ty, ng.Concl)
		return ng, nil
	}
	return nil, fmt.Errorf("tactic: no hypothesis or variable %q", n)
}

func tacSubst(env *kernel.Env, g *Goal, sc *kernel.Scratch) ([]*Goal, error) {
	cur := g
	for changed := true; changed; {
		changed = false
		for _, h := range cur.Hyps {
			if h.Form.Kind != kernel.FEq {
				continue
			}
			var x string
			var t *kernel.Term
			if h.Form.T1.IsVar() {
				if _, isVar := cur.VarType(h.Form.T1.Var); isVar && !h.Form.T2.HasVar(h.Form.T1.Var) {
					x, t = h.Form.T1.Var, h.Form.T2
				}
			}
			if x == "" && h.Form.T2.IsVar() {
				if _, isVar := cur.VarType(h.Form.T2.Var); isVar && !h.Form.T1.HasVar(h.Form.T2.Var) {
					x, t = h.Form.T2.Var, h.Form.T1
				}
			}
			if x == "" {
				continue
			}
			cur = cur.RemoveHyp(h.Name).substVar(x, t, 0, 0, sc)
			changed = true
			break
		}
	}
	if cur == g {
		// Coq's subst succeeds even with nothing to do.
		return []*Goal{g}, nil
	}
	return []*Goal{cur}, nil
}

// ---------------------------------------------------------------------------
// Computation

func tacSimpl(env *kernel.Env, g *Goal, in string) ([]*Goal, error) {
	ev := kernel.NewEvaluator(env)
	switch in {
	case "":
		nf, err := ev.NormalizeForm(g.Concl)
		if err != nil {
			return nil, err
		}
		ng := g.Clone()
		ng.Concl = nf
		return []*Goal{ng}, nil
	case "*":
		ng := g.Clone()
		for i, h := range ng.Hyps {
			nf, err := ev.NormalizeForm(h.Form)
			if err != nil {
				return nil, err
			}
			ng.Hyps[i] = Hyp{Name: h.Name, Form: nf}
		}
		nf, err := ev.NormalizeForm(g.Concl)
		if err != nil {
			return nil, err
		}
		ng.Concl = nf
		return []*Goal{ng}, nil
	default:
		h, ok := g.HypNamed(in)
		if !ok {
			return nil, fmt.Errorf("tactic: no hypothesis %q", in)
		}
		nf, err := ev.NormalizeForm(h.Form)
		if err != nil {
			return nil, err
		}
		return []*Goal{g.ReplaceHyp(in, nf)}, nil
	}
}

func tacUnfold(env *kernel.Env, g *Goal, names []string, in string) ([]*Goal, error) {
	if len(names) == 0 {
		return nil, errors.New("tactic: unfold expects a name")
	}
	ev := kernel.NewEvaluator(env)
	unfoldIn := func(f *kernel.Form) (*kernel.Form, error) {
		out := f
		for _, n := range names {
			_, isFun := env.Funs[n]
			_, isDef := env.Defs[n]
			if !isFun && !isDef {
				return nil, fmt.Errorf("tactic: %q is not unfoldable", n)
			}
			nf, _ := ev.UnfoldDef(n, out)
			out = nf
		}
		return ev.NormalizeForm(out)
	}
	switch in {
	case "":
		nf, err := unfoldIn(g.Concl)
		if err != nil {
			return nil, err
		}
		ng := g.Clone()
		ng.Concl = nf
		return []*Goal{ng}, nil
	case "*":
		ng := g.Clone()
		for i, h := range ng.Hyps {
			nf, err := unfoldIn(h.Form)
			if err != nil {
				return nil, err
			}
			ng.Hyps[i] = Hyp{Name: h.Name, Form: nf}
		}
		nf, err := unfoldIn(g.Concl)
		if err != nil {
			return nil, err
		}
		ng.Concl = nf
		return []*Goal{ng}, nil
	default:
		h, ok := g.HypNamed(in)
		if !ok {
			return nil, fmt.Errorf("tactic: no hypothesis %q", in)
		}
		nf, err := unfoldIn(h.Form)
		if err != nil {
			return nil, err
		}
		return []*Goal{g.ReplaceHyp(in, nf)}, nil
	}
}

func tacReflexivity(env *kernel.Env, g *Goal) ([]*Goal, error) {
	switch g.Concl.Kind {
	case kernel.FEq:
		if g.Concl.T1.Equal(g.Concl.T2) {
			return nil, nil
		}
		ev := kernel.NewEvaluator(env)
		t1, err := ev.Normalize(g.Concl.T1)
		if err != nil {
			return nil, err
		}
		t2, err := ev.Normalize(g.Concl.T2)
		if err != nil {
			return nil, err
		}
		if kernel.AlphaEqualTerms(t1, t2) {
			return nil, nil
		}
		return nil, errNotConvertible
	case kernel.FIff:
		if g.Concl.L.FingerprintKey() == g.Concl.R.FingerprintKey() {
			return nil, nil
		}
		return nil, errIffSidesDiffer
	case kernel.FTrue:
		return nil, nil
	}
	return nil, errNotEquality
}

func tacSymmetry(env *kernel.Env, g *Goal, in string) ([]*Goal, error) {
	flip := func(f *kernel.Form) (*kernel.Form, error) {
		if f.Kind == kernel.FEq {
			return kernel.Eq(f.T2, f.T1), nil
		}
		if f.Kind == kernel.FIff {
			return kernel.Iff(f.R, f.L), nil
		}
		return nil, errors.New("tactic: not an equality")
	}
	if in == "" {
		nf, err := flip(g.Concl)
		if err != nil {
			return nil, err
		}
		ng := g.Clone()
		ng.Concl = nf
		return []*Goal{ng}, nil
	}
	h, ok := g.HypNamed(in)
	if !ok {
		return nil, fmt.Errorf("tactic: no hypothesis %q", in)
	}
	nf, err := flip(h.Form)
	if err != nil {
		return nil, err
	}
	return []*Goal{g.ReplaceHyp(in, nf)}, nil
}

func tacFEqual(env *kernel.Env, g *Goal) ([]*Goal, error) {
	if g.Concl.Kind != kernel.FEq {
		return nil, errors.New("tactic: f_equal expects an equality goal")
	}
	a, b := g.Concl.T1, g.Concl.T2
	if !a.IsApp() || !b.IsApp() || a.Fun != b.Fun || len(a.Args) != len(b.Args) {
		return nil, errors.New("tactic: heads differ")
	}
	var out []*Goal
	for i := range a.Args {
		if a.Args[i].Equal(b.Args[i]) {
			continue
		}
		ng := g.Clone()
		ng.Concl = kernel.Eq(a.Args[i], b.Args[i])
		out = append(out, ng)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Contradiction-style closers

func tacContradiction(env *kernel.Env, g *Goal) ([]*Goal, error) {
	for _, h := range g.Hyps {
		if h.Form.Kind == kernel.FFalse {
			return nil, nil
		}
	}
	for _, h := range g.Hyps {
		if h.Form.Kind != kernel.FNot {
			continue
		}
		want := h.Form.L.FingerprintKey()
		for _, h2 := range g.Hyps {
			if h2.Form.FingerprintKey() == want {
				return nil, nil
			}
		}
	}
	return nil, errors.New("tactic: no contradiction found")
}

// ctorClash reports whether two normalized terms are separated by distinct
// constructors somewhere along a shared constructor spine.
func ctorClash(env *kernel.Env, a, b *kernel.Term) bool {
	if !a.IsApp() || !b.IsApp() {
		return false
	}
	aCtor, bCtor := env.IsConstructor(a.Fun), env.IsConstructor(b.Fun)
	if !aCtor || !bCtor {
		return false
	}
	if a.Fun != b.Fun {
		return true
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if ctorClash(env, a.Args[i], b.Args[i]) {
			return true
		}
	}
	return false
}

func tacDiscriminate(env *kernel.Env, g *Goal, name string) ([]*Goal, error) {
	ev := kernel.NewEvaluator(env)
	tryEq := func(f *kernel.Form) bool {
		if f.Kind != kernel.FEq {
			return false
		}
		t1, err1 := ev.Normalize(f.T1)
		t2, err2 := ev.Normalize(f.T2)
		if err1 != nil || err2 != nil {
			return false
		}
		return ctorClash(env, t1, t2)
	}
	if name != "" {
		h, ok := g.HypNamed(name)
		if !ok {
			return nil, fmt.Errorf("tactic: no hypothesis %q", name)
		}
		if tryEq(h.Form) {
			return nil, nil
		}
		return nil, errors.New("tactic: hypothesis is not a discriminable equality")
	}
	// Goal form `a <> b` with a clash.
	if g.Concl.Kind == kernel.FNot && g.Concl.L.Kind == kernel.FEq && tryEq(g.Concl.L) {
		return nil, nil
	}
	for _, h := range g.Hyps {
		if tryEq(h.Form) {
			return nil, nil
		}
	}
	return nil, errors.New("tactic: no discriminable equality")
}

// ---------------------------------------------------------------------------
// Cut and forward reasoning

func tacAssert(env *kernel.Env, g *Goal, raw *kernel.Form, idents []string) ([]*Goal, error) {
	f, err := resolveGoalForm(env, g, raw)
	if err != nil {
		return nil, err
	}
	name := ""
	if len(idents) > 0 {
		name = idents[0]
	}
	used := g.usedNames()
	defer releaseNames(used)
	if name == "" {
		name = g.FreshHypName(used)
	} else if used[name] {
		return nil, fmt.Errorf("tactic: name %q already used", name)
	}
	side := g.Clone()
	side.Concl = f
	main := g.Clone()
	main.Hyps = append(main.Hyps, Hyp{Name: name, Form: f})
	return []*Goal{side, main}, nil
}
