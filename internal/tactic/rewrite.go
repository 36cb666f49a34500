package tactic

import (
	"errors"
	"fmt"

	"llmfscq/internal/kernel"
)

// errRewriteUndetermined is shared: a rejection need not allocate (see
// apply.go).
var errRewriteUndetermined = errors.New("tactic: rewrite cannot determine all instances")

func tacRewrite(env *kernel.Env, g *Goal, c Call, sc *kernel.Scratch) ([]*Goal, error) {
	if len(c.Idents) == 0 {
		return nil, errors.New("tactic: rewrite expects an equation name")
	}
	main := g
	var sides []*Goal
	for _, name := range c.Idents {
		res, extra, err := rewriteOne(env, main, name, c.Rev, c.InHyp, sc)
		if err != nil {
			return nil, err
		}
		main = res
		sides = append(sides, extra...)
	}
	return append([]*Goal{main}, sides...), nil
}

// noMatchError rejects a rewrite whose left-hand side matches no subterm.
// Most rewrite attempts in a sweep end here and only a wire answer reads
// the text, so the message is rendered when asked for: a single-pointer
// struct goes into an interface without allocating, and the interned term
// it holds is immutable.
type noMatchError struct{ lhs *kernel.Term }

func (e noMatchError) Error() string {
	return "tactic: found no subterm matching " + e.lhs.String()
}

// rewriteOne rewrites with one named equation in the conclusion or a
// hypothesis, returning the rewritten goal plus side-condition goals for the
// equation's premises.
func rewriteOne(env *kernel.Env, g *Goal, name string, rev bool, in string, sc *kernel.Scratch) (*Goal, []*Goal, error) {
	stmt, err := lookupStmt(env, g, name)
	if err != nil {
		return nil, nil, err
	}
	insts := instantiations(stmt, sc)
	inst := insts[len(insts)-1]
	if inst.concl.Kind != kernel.FEq {
		return nil, nil, fmt.Errorf("tactic: %q is not an equation", name)
	}
	lhs, rhs := inst.concl.T1, inst.concl.T2
	if rev {
		lhs, rhs = rhs, lhs
	}

	target := g.Concl
	if in != "" {
		h, ok := g.HypNamed(in)
		if !ok {
			return nil, nil, fmt.Errorf("tactic: no hypothesis %q", in)
		}
		target = h.Form
	}

	instTerm, sub, ok := kernel.FindInstanceFormS(lhs, target, inst.flex, nil, sc)
	if !ok {
		return nil, nil, noMatchError{lhs}
	}
	if !metasResolved(inst, sub, sc) {
		return nil, nil, errRewriteUndetermined
	}
	replacement := kernel.FullResolveS(rhs, sub, sc)
	newTarget, n := kernel.ReplaceAllForm(target, instTerm, replacement)
	if n == 0 {
		return nil, nil, errors.New("tactic: internal: instance vanished")
	}

	var main *Goal
	if in == "" {
		main = g.Clone()
		main.Concl = newTarget
	} else {
		main = g.ReplaceHyp(in, newTarget)
	}
	var sides []*Goal
	for _, prem := range inst.prems {
		ng := g.Clone()
		ng.Concl = kernel.FullResolveFormS(prem, sub, sc)
		sides = append(sides, ng)
	}
	return main, sides, nil
}
