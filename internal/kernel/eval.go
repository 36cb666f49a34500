package kernel

import (
	"errors"
	"sync"
)

// ErrFuel is returned when normalization runs out of fuel. Tactics surface
// it as the "tactic timed out" condition (the paper's 5-second limit).
var ErrFuel = errors.New("kernel: evaluation fuel exhausted")

// DefaultFuel bounds the number of reduction steps in one normalization.
const DefaultFuel = 20000

// Evaluator normalizes terms against an environment with bounded fuel.
type Evaluator struct {
	Env  *Env
	Fuel int
	// spent counts consumed steps across a single Normalize call tree.
	spent int
	// iota counts match reductions, used for the fixpoint-unfold guard.
	iota int
}

// NewEvaluator returns an evaluator with the default fuel budget.
func NewEvaluator(env *Env) *Evaluator { return &Evaluator{Env: env, Fuel: DefaultFuel} }

// Normalize reduces t to (simpl-style) normal form: function unfolding with
// the Coq-like guard that a Fixpoint only unfolds when its unfolding makes
// iota progress (the top-level match reduces); match reduction on
// constructor-headed scrutinees; recursion into arguments.
//
//hot:root
func (ev *Evaluator) Normalize(t *Term) (*Term, error) {
	ev.spent = 0
	return ev.norm(t, maxDepth)
}

// maxDepth bounds recursion depth within one normalization; the step
// budget (Fuel) is the real limit, this only guards the Go stack.
const maxDepth = 2048

// NormalizeForm normalizes every term inside a formula.
//
//hot:root
func (ev *Evaluator) NormalizeForm(f *Form) (*Form, error) {
	ev.spent = 0
	return ev.normForm(f, maxDepth)
}

func (ev *Evaluator) tick() error {
	ev.spent++
	if ev.spent > ev.Fuel {
		return ErrFuel
	}
	return nil
}

func (ev *Evaluator) norm(t *Term, depth int) (*Term, error) {
	if err := ev.tick(); err != nil {
		return nil, err
	}
	if depth <= 0 {
		return nil, ErrFuel
	}
	switch {
	case t == nil:
		return nil, nil
	case t.Var != "":
		return t, nil
	case t.Match != nil:
		scrut, err := ev.norm(t.Match.Scrut, depth-1)
		if err != nil {
			return nil, err
		}
		if red, ok, err := ev.reduceMatch(scrut, t.Match.Cases); err != nil {
			return nil, err
		} else if ok {
			ev.iota++
			return ev.norm(red, depth-1)
		}
		if scrut == t.Match.Scrut {
			return t, nil
		}
		return mkMatch(scrut, t.Match.Cases), nil
	default:
		// Copy-on-write: terms are immutable, so an application whose
		// arguments are already normal is returned as-is — normalization
		// reaches a fixpoint quickly, making this the common case.
		args := t.Args
		var nargs []*Term
		for i, a := range t.Args {
			na, err := ev.norm(a, depth-1)
			if err != nil {
				return nil, err
			}
			if na != a && nargs == nil {
				nargs = make([]*Term, len(t.Args))
				copy(nargs, t.Args[:i])
			}
			if nargs != nil {
				nargs[i] = na
			}
		}
		head := t
		if nargs != nil {
			args = nargs
			head = mkApp(t.Fun, nargs)
		}
		fd, isFun := ev.Env.Funs[t.Fun]
		if !isFun || len(args) != len(fd.Params) {
			return head, nil
		}
		body := instantiateBody(fd, args)
		// Unfold guard, mirroring Coq's simpl: unfold the definition only if
		// doing so makes iota progress (some match reduces). Definitions
		// whose body contains no match at all always unfold.
		before := ev.iota
		reduced, err := ev.norm(body, depth-1)
		if err != nil {
			return nil, err
		}
		if ev.iota == before && containsMatch(fd.Body) {
			return head, nil
		}
		return reduced, nil
	}
}

// instantiateBody returns fd.Body with the parameters substituted by args,
// memoized on pointer identity of (fd, args). Terms are interned, so
// repeated normalizations of the same call collapse to the same canonical
// argument pointers, and unfolding a definition becomes a map hit instead of
// a substitution walk. The memo only shares immutable terms, so hits are
// observationally identical to recomputation; it is skipped for arities
// above 4 and capped per shard to bound memory.
type bodyMemoKey struct {
	fd             *FunDef
	a0, a1, a2, a3 *Term
}

type bodyMemoShard struct {
	mu sync.Mutex
	m  map[bodyMemoKey]*Term
}

const (
	bodyMemoShards   = 64
	bodyMemoShardCap = 1 << 15
)

var bodyMemo [bodyMemoShards]bodyMemoShard

func paramSubst(params []TypedVar, args []*Term) Subst {
	sub := make(Subst, len(params))
	for i, p := range params {
		sub[p.Name] = args[i]
	}
	return sub
}

func instantiateBody(fd *FunDef, args []*Term) *Term {
	if len(args) > 4 {
		return fd.Body.ApplySubst(paramSubst(fd.Params, args))
	}
	k := bodyMemoKey{fd: fd}
	var hx uint64
	for i, a := range args {
		switch i {
		case 0:
			k.a0 = a
		case 1:
			k.a1 = a
		case 2:
			k.a2 = a
		case 3:
			k.a3 = a
		}
		if a != nil {
			hx = hx*hmulB + a.hash
		}
	}
	var bh uint64
	if fd.Body != nil {
		bh = fd.Body.hash
	}
	sh := &bodyMemo[hmix(hx^bh)&(bodyMemoShards-1)]
	sh.mu.Lock()
	if r, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return r
	}
	sh.mu.Unlock()
	r := fd.Body.ApplySubst(paramSubst(fd.Params, args))
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[bodyMemoKey]*Term)
	}
	if prev, ok := sh.m[k]; ok {
		r = prev
	} else if len(sh.m) < bodyMemoShardCap {
		sh.m[k] = r
	}
	sh.mu.Unlock()
	return r
}

func containsMatch(t *Term) bool {
	found := false
	t.Subterms(func(u *Term) bool {
		if u.Match != nil {
			found = true
			return false
		}
		return true
	})
	return found
}

// reduceMatch attempts one iota step: if the scrutinee is constructor-headed
// and some case pattern matches, return the instantiated right-hand side.
func (ev *Evaluator) reduceMatch(scrut *Term, cases []MatchCase) (*Term, bool, error) {
	if !scrut.IsApp() || !ev.Env.IsConstructor(scrut.Fun) {
		return nil, false, nil
	}
	for _, c := range cases {
		if sub, ok := matchPattern(c.Pat, scrut); ok {
			return c.RHS.ApplySubst(sub), true, nil
		}
	}
	return nil, false, nil
}

// matchPattern matches a linear constructor pattern against a term.
// Pattern variables bind; constructor applications must agree.
func matchPattern(pat, t *Term) (Subst, bool) {
	sub := Subst{}
	if matchPatternInto(pat, t, sub) {
		return sub, true
	}
	return nil, false
}

func matchPatternInto(pat, t *Term, sub Subst) bool {
	switch {
	case pat == nil || t == nil:
		return pat == t
	case pat.Var != "":
		if pat.Var == "_" {
			return true
		}
		if prev, ok := sub[pat.Var]; ok {
			return prev.Equal(t)
		}
		sub[pat.Var] = t
		return true
	case pat.Match != nil:
		return false
	default:
		if !t.IsApp() || pat.Fun != t.Fun || len(pat.Args) != len(t.Args) {
			return false
		}
		for i := range pat.Args {
			if !matchPatternInto(pat.Args[i], t.Args[i], sub) {
				return false
			}
		}
		return true
	}
}

func (ev *Evaluator) normForm(f *Form, depth int) (*Form, error) {
	if f == nil {
		return nil, nil
	}
	switch f.Kind {
	case FTrue, FFalse:
		return f, nil
	case FEq:
		t1, err := ev.norm(f.T1, depth)
		if err != nil {
			return nil, err
		}
		t2, err := ev.norm(f.T2, depth)
		if err != nil {
			return nil, err
		}
		if t1 == f.T1 && t2 == f.T2 {
			return f, nil
		}
		return Eq(t1, t2), nil
	case FPred:
		var nargs []*Term
		for i, a := range f.Args {
			na, err := ev.norm(a, depth)
			if err != nil {
				return nil, err
			}
			if na != a && nargs == nil {
				nargs = make([]*Term, len(f.Args))
				copy(nargs, f.Args[:i])
			}
			if nargs != nil {
				nargs[i] = na
			}
		}
		if nargs == nil {
			return f, nil
		}
		return mkPred(f.Pred, nargs), nil
	case FNot:
		l, err := ev.normForm(f.L, depth)
		if err != nil {
			return nil, err
		}
		if l == f.L {
			return f, nil
		}
		return Not(l), nil
	case FAnd, FOr, FImpl, FIff:
		l, err := ev.normForm(f.L, depth)
		if err != nil {
			return nil, err
		}
		r, err := ev.normForm(f.R, depth)
		if err != nil {
			return nil, err
		}
		if l == f.L && r == f.R {
			return f, nil
		}
		return mkConn(f.Kind, l, r), nil
	case FForall, FExists:
		body, err := ev.normForm(f.Body, depth)
		if err != nil {
			return nil, err
		}
		if body == f.Body {
			return f, nil
		}
		return mkQuant(f.Kind, f.Binder, f.BType, body), nil
	}
	return f, nil
}

// UnfoldDef replaces applications of the named definition in a formula by
// its body (one level). Works for both predicate definitions and function
// definitions.
func (ev *Evaluator) UnfoldDef(name string, f *Form) (*Form, bool) {
	changed := false
	var walkTerm func(t *Term) *Term
	walkTerm = func(t *Term) *Term {
		switch {
		case t == nil || t.Var != "":
			return t
		case t.Match != nil:
			cases := make([]MatchCase, len(t.Match.Cases))
			for i, c := range t.Match.Cases {
				cases[i] = MatchCase{Pat: c.Pat, RHS: walkTerm(c.RHS)}
			}
			return mkMatch(walkTerm(t.Match.Scrut), cases)
		default:
			args := make([]*Term, len(t.Args))
			for i, a := range t.Args {
				args[i] = walkTerm(a)
			}
			if fd, ok := ev.Env.Funs[t.Fun]; ok && t.Fun == name && len(args) == len(fd.Params) {
				changed = true
				return instantiateBody(fd, args)
			}
			return mkApp(t.Fun, args)
		}
	}
	var walk func(f *Form) *Form
	walk = func(f *Form) *Form {
		if f == nil {
			return nil
		}
		switch f.Kind {
		case FTrue, FFalse:
			return f
		case FEq:
			return Eq(walkTerm(f.T1), walkTerm(f.T2))
		case FPred:
			args := make([]*Term, len(f.Args))
			for i, a := range f.Args {
				args[i] = walkTerm(a)
			}
			if f.Pred == name {
				if def, ok := ev.Env.Defs[name]; ok && len(args) == len(def.Params) {
					sub := make(Subst, len(def.Params))
					for i, p := range def.Params {
						sub[p.Name] = args[i]
					}
					changed = true
					return def.Body.SubstTerm(sub)
				}
			}
			return mkPred(f.Pred, args)
		case FNot:
			return Not(walk(f.L))
		case FAnd, FOr, FImpl, FIff:
			return mkConn(f.Kind, walk(f.L), walk(f.R))
		case FForall, FExists:
			return mkQuant(f.Kind, f.Binder, f.BType, walk(f.Body))
		}
		return f
	}
	out := walk(f)
	return out, changed
}
