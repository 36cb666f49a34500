package syntax

import (
	"fmt"

	"llmfscq/internal/kernel"
)

// The parser produces identifier leaves as variables; resolution against an
// environment turns known constructor and function names into applications
// and validates predicate atoms. Bound variables shadow global names.

// ResolveTerm resolves identifiers in a parsed term against env. bound holds
// the names of in-scope term binders.
func ResolveTerm(env *kernel.Env, t *kernel.Term, bound map[string]bool) (*kernel.Term, error) {
	switch {
	case t == nil:
		return nil, nil
	case t.Var != "":
		if bound[t.Var] {
			return t, nil
		}
		if env.IsConstructor(t.Var) {
			return kernel.A(t.Var), nil
		}
		if _, ok := env.Funs[t.Var]; ok {
			return kernel.A(t.Var), nil
		}
		// Unknown free identifier: keep as a variable. Lemma statements are
		// closed by their quantifiers, so loaders can reject stray frees.
		return t, nil
	case t.Match != nil:
		scrut, err := ResolveTerm(env, t.Match.Scrut, bound)
		if err != nil {
			return nil, err
		}
		cases := make([]kernel.MatchCase, len(t.Match.Cases))
		for i, c := range t.Match.Cases {
			pat, binders, err := resolvePattern(env, c.Pat)
			if err != nil {
				return nil, err
			}
			inner := bound
			if len(binders) > 0 {
				inner = cloneSet(bound)
				for _, b := range binders {
					inner[b] = true
				}
			}
			rhs, err := ResolveTerm(env, c.RHS, inner)
			if err != nil {
				return nil, err
			}
			cases[i] = kernel.MatchCase{Pat: pat, RHS: rhs}
		}
		return kernel.NewMatch(scrut, cases), nil
	default:
		args := make([]*kernel.Term, len(t.Args))
		for i, a := range t.Args {
			ra, err := ResolveTerm(env, a, bound)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return kernel.A(t.Fun, args...), nil
	}
}

// resolvePattern resolves a match pattern: the head (and nested heads) must
// be constructors; other identifiers are fresh binders.
func resolvePattern(env *kernel.Env, pat *kernel.Term) (*kernel.Term, []string, error) {
	var binders []string
	var walk func(p *kernel.Term) (*kernel.Term, error)
	walk = func(p *kernel.Term) (*kernel.Term, error) {
		switch {
		case p == nil:
			return nil, fmt.Errorf("syntax: nil pattern")
		case p.Var != "":
			if env.IsConstructor(p.Var) {
				return kernel.A(p.Var), nil
			}
			if p.Var != "_" {
				binders = append(binders, p.Var)
			}
			return p, nil
		case p.Match != nil:
			return nil, fmt.Errorf("syntax: match expression in pattern")
		default:
			if !env.IsConstructor(p.Fun) {
				return nil, fmt.Errorf("syntax: pattern head %q is not a constructor", p.Fun)
			}
			args := make([]*kernel.Term, len(p.Args))
			for i, a := range p.Args {
				ra, err := walk(a)
				if err != nil {
					return nil, err
				}
				args[i] = ra
			}
			return kernel.A(p.Fun, args...), nil
		}
	}
	out, err := walk(pat)
	if err != nil {
		return nil, nil, err
	}
	return out, binders, nil
}

// ResolveForm resolves identifiers in a parsed formula against env. It
// reports the first error in walk order, left to right: an unknown
// predicate before any bad argument of its own or to its right.
func ResolveForm(env *kernel.Env, f *kernel.Form, bound map[string]bool) (*kernel.Form, error) {
	if f == nil {
		return nil, nil
	}
	switch f.Kind {
	case kernel.FPred:
		_, isPred := env.Preds[f.Pred]
		_, isDef := env.Defs[f.Pred]
		if !isPred && !isDef {
			return nil, fmt.Errorf("syntax: unknown predicate %q", f.Pred)
		}
	case kernel.FForall, kernel.FExists:
		inner := cloneSet(bound)
		inner[f.Binder] = true
		bound = inner
	}
	var err error
	out := f.Map(func(t *kernel.Term) *kernel.Term {
		if err == nil {
			var r *kernel.Term
			if r, err = ResolveTerm(env, t, bound); err == nil {
				return r
			}
		}
		return t
	}, func(g *kernel.Form) *kernel.Form {
		if err == nil {
			var r *kernel.Form
			if r, err = ResolveForm(env, g, bound); err == nil {
				return r
			}
		}
		return g
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s)+4)
	for k, v := range s {
		out[k] = v
	}
	return out
}

// MarkTypeVars rewrites type expressions so that names in tvars become type
// variables (used after parsing binders like `(A : Type)`).
func MarkTypeVars(ty *kernel.Type, tvars map[string]bool) *kernel.Type {
	if ty == nil {
		return nil
	}
	if len(ty.Args) == 0 && tvars[ty.Name] {
		return kernel.TyVar(ty.Name)
	}
	args := make([]*kernel.Type, len(ty.Args))
	for i, a := range ty.Args {
		args[i] = MarkTypeVars(a, tvars)
	}
	return kernel.MkType(ty.Name, args, ty.TVar)
}
