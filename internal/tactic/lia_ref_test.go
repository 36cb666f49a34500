package tactic

import (
	"fmt"
	"sort"

	"llmfscq/internal/kernel"
)

// This file keeps omega as it was before its constraints became flat,
// pooled lists: atoms keyed by the rendered term, coefficient maps, and
// Fourier–Motzkin deduplication by formatted keys. It is the reference
// TestLiaMatchesReference compares tacLia against; only its names differ
// (ref-prefixed), and it shares gcd and the two rejections with lia.go.

// refLia, the omega tactic, decides linear arithmetic over the naturals: it
// linearizes the hypotheses and the negated goal into constraints of the
// form `expr >= 0`, atomizing non-linear subterms, and refutes them with
// Fourier–Motzkin elimination plus integer (gcd) tightening. Natural
// subtraction `a - b` is approximated by an atom m with m >= a-b, m >= 0,
// m <= a, which is sound (every provable goal stays provable) but
// incomplete for goals that need the exact truncation case split.
func refLia(env *kernel.Env, g *Goal) ([]*Goal, error) {
	lz := &refLinearizer{env: env, atoms: map[string]int{}}
	var base []refLinConstraint

	for _, h := range g.Hyps {
		cs, ok := lz.constraintsOf(h.Form, false)
		if !ok {
			continue // non-arithmetic hypotheses are ignored
		}
		base = append(base, cs...)
	}
	negGoalAlts, ok := lz.negatedGoal(g.Concl)
	if !ok {
		return nil, errNotLinear
	}
	base = append(base, lz.aux...)
	// Non-negativity of every atom.
	for _, id := range refSortedAtomIDs(lz) {
		base = append(base, refLinConstraint{coef: map[int]int{id: 1}})
	}

	// The negated goal may be a disjunction (from equalities); every branch
	// must be refuted.
	for _, alt := range negGoalAlts {
		sys := append(append([]refLinConstraint{}, base...), alt...)
		if !refFmUnsat(sys) {
			return nil, errLiaFails
		}
	}
	return nil, nil
}

// refLinConstraint represents  const + Σ coef[v]·v  >= 0.
type refLinConstraint struct {
	coef  map[int]int
	konst int
}

func (c refLinConstraint) clone() refLinConstraint {
	nc := refLinConstraint{coef: make(map[int]int, len(c.coef)), konst: c.konst}
	for k, v := range c.coef {
		nc.coef[k] = v
	}
	return nc
}

// key canonicalizes a constraint for deduplication.
func (c refLinConstraint) key() string {
	ids := make([]int, 0, len(c.coef))
	for id, v := range c.coef {
		if v != 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	s := fmt.Sprintf("k%d", c.konst)
	for _, id := range ids {
		s += fmt.Sprintf(",%d:%d", id, c.coef[id])
	}
	return s
}

type refLinearizer struct {
	env   *kernel.Env
	atoms map[string]int // fingerprint -> atom id
	names []string
	aux   []refLinConstraint // auxiliary constraints (from minus atoms)
}

func refSortedAtomIDs(lz *refLinearizer) []int {
	out := make([]int, len(lz.names))
	for i := range out {
		out[i] = i
	}
	return out
}

func (lz *refLinearizer) atomID(t *kernel.Term) int {
	key := t.String()
	if id, ok := lz.atoms[key]; ok {
		return id
	}
	id := len(lz.names)
	lz.atoms[key] = id
	lz.names = append(lz.names, key)
	return id
}

// lin converts a term to (const, coefficient map); non-linear subterms
// become atoms. ok=false only for terms that cannot even be atomized.
func (lz *refLinearizer) lin(t *kernel.Term) (int, map[int]int, bool) {
	switch {
	case t == nil:
		return 0, nil, false
	case t.IsVar():
		return 0, map[int]int{lz.atomID(t): 1}, true
	case t.Match != nil:
		return 0, map[int]int{lz.atomID(t): 1}, true
	case t.Fun == "O" && len(t.Args) == 0:
		return 0, nil, true
	case t.Fun == "S" && len(t.Args) == 1:
		k, m, ok := lz.lin(t.Args[0])
		return k + 1, m, ok
	case t.Fun == "plus" && len(t.Args) == 2:
		k1, m1, ok1 := lz.lin(t.Args[0])
		k2, m2, ok2 := lz.lin(t.Args[1])
		if !ok1 || !ok2 {
			return 0, nil, false
		}
		return k1 + k2, refAddMaps(m1, m2, 1), true
	case t.Fun == "mult" && len(t.Args) == 2:
		k1, m1, ok1 := lz.lin(t.Args[0])
		k2, m2, ok2 := lz.lin(t.Args[1])
		if ok1 && len(m1) == 0 { // constant * expr
			return k1 * k2, refScaleMap(m2, k1), ok2
		}
		if ok2 && len(m2) == 0 {
			return k1 * k2, refScaleMap(m1, k2), ok1
		}
		return 0, map[int]int{lz.atomID(t): 1}, true
	case t.Fun == "minus" && len(t.Args) == 2:
		// m := a - b (truncated): introduce atom with sound bounds.
		id := lz.atomID(t)
		ka, ma, oka := lz.lin(t.Args[0])
		kb, mb, okb := lz.lin(t.Args[1])
		if oka && okb {
			// m - a + b >= 0
			c1 := refLinConstraint{konst: -ka + kb, coef: refAddMaps(map[int]int{id: 1}, refAddMaps(refScaleMap(ma, -1), mb, 1), 1)}
			// a - m >= 0
			c2 := refLinConstraint{konst: ka, coef: refAddMaps(ma, map[int]int{id: -1}, 1)}
			lz.aux = append(lz.aux, c1, c2)
		}
		return 0, map[int]int{id: 1}, true
	default:
		return 0, map[int]int{lz.atomID(t): 1}, true
	}
}

func refAddMaps(a, b map[int]int, scaleB int) map[int]int {
	out := make(map[int]int, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v * scaleB
	}
	for k, v := range out {
		if v == 0 {
			delete(out, k)
		}
	}
	return out
}

func refScaleMap(m map[int]int, s int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		if v*s != 0 {
			out[k] = v * s
		}
	}
	return out
}

// geZero builds the constraint a - b - slack >= 0 ... concretely
// lhsConst + lhs - (rhsConst + rhs) - slack >= 0.
func (lz *refLinearizer) geZero(a, b *kernel.Term, slack int) ([]refLinConstraint, bool) {
	ka, ma, oka := lz.lin(a)
	kb, mb, okb := lz.lin(b)
	if !oka || !okb {
		return nil, false
	}
	c := refLinConstraint{konst: ka - kb - slack, coef: refAddMaps(ma, mb, -1)}
	return []refLinConstraint{c}, true
}

// constraintsOf converts a hypothesis (or, when neg is true, its negation)
// to constraints. Only conjunction-free arithmetic shapes are handled.
func (lz *refLinearizer) constraintsOf(f *kernel.Form, neg bool) ([]refLinConstraint, bool) {
	if f == nil {
		return nil, false
	}
	switch f.Kind {
	case kernel.FNot:
		return lz.constraintsOf(f.L, !neg)
	case kernel.FPred:
		if len(f.Args) != 2 {
			return nil, false
		}
		switch f.Pred {
		case "le":
			if neg {
				// ~(a <= b)  ≡  b+1 <= a  ≡  a - b - 1 >= 0
				return lz.geZero(f.Args[0], f.Args[1], 1)
			}
			return lz.geZero(f.Args[1], f.Args[0], 0)
		case "lt":
			if neg {
				return lz.geZero(f.Args[0], f.Args[1], 0)
			}
			return lz.geZero(f.Args[1], f.Args[0], 1)
		}
		return nil, false
	case kernel.FEq:
		if neg {
			// Disequalities in hypotheses would need a case split; skip them
			// (sound: we just use less information).
			return nil, false
		}
		c1, ok1 := lz.geZero(f.T1, f.T2, 0)
		c2, ok2 := lz.geZero(f.T2, f.T1, 0)
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(c1, c2...), true
	case kernel.FAnd:
		if neg {
			return nil, false
		}
		l, ok1 := lz.constraintsOf(f.L, false)
		r, ok2 := lz.constraintsOf(f.R, false)
		if !ok1 && !ok2 {
			return nil, false
		}
		return append(l, r...), true
	}
	return nil, false
}

// negatedGoal returns the disjunctive alternatives of the goal's negation;
// the goal is proved when each alternative is unsatisfiable together with
// the hypotheses.
func (lz *refLinearizer) negatedGoal(f *kernel.Form) ([][]refLinConstraint, bool) {
	switch f.Kind {
	case kernel.FFalse:
		return [][]refLinConstraint{nil}, true
	case kernel.FPred:
		cs, ok := lz.constraintsOf(f, true)
		if !ok {
			return nil, false
		}
		return [][]refLinConstraint{cs}, true
	case kernel.FEq:
		// neg is a disequality: a < b or b < a.
		c1, ok1 := lz.geZero(f.T1, f.T2, 1) // a - b - 1 >= 0  (a > b)
		c2, ok2 := lz.geZero(f.T2, f.T1, 1)
		if !ok1 || !ok2 {
			return nil, false
		}
		return [][]refLinConstraint{c1, c2}, true
	case kernel.FNot:
		inner := f.L
		switch inner.Kind {
		case kernel.FEq:
			// neg of (a <> b) is a = b.
			c1, ok1 := lz.geZero(inner.T1, inner.T2, 0)
			c2, ok2 := lz.geZero(inner.T2, inner.T1, 0)
			if !ok1 || !ok2 {
				return nil, false
			}
			return [][]refLinConstraint{append(c1, c2...)}, true
		case kernel.FPred:
			cs, ok := lz.constraintsOf(inner, false)
			if !ok {
				return nil, false
			}
			return [][]refLinConstraint{cs}, true
		}
		return nil, false
	case kernel.FAnd:
		// Goal A /\ B: both negations must be refuted... but ~(A/\B) is a
		// disjunction requiring each branch refuted: same structure.
		la, ok1 := lz.negatedGoal(f.L)
		lb, ok2 := lz.negatedGoal(f.R)
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(la, lb...), true
	}
	return nil, false
}

// refFmUnsat decides unsatisfiability by Fourier–Motzkin with gcd tightening.
func refFmUnsat(cs []refLinConstraint) bool {
	const maxVars, maxCons = 24, 600
	seen := map[string]bool{}
	var sys []refLinConstraint
	push := func(c refLinConstraint) bool {
		c = refTighten(c)
		if len(c.coef) == 0 {
			if c.konst < 0 {
				return true // contradiction found
			}
			return false
		}
		if k := c.key(); !seen[k] {
			seen[k] = true
			sys = append(sys, c)
		}
		return false
	}
	for _, c := range cs {
		if push(c.clone()) {
			return true
		}
	}
	vars := map[int]bool{}
	for _, c := range sys {
		for v := range c.coef {
			vars[v] = true
		}
	}
	if len(vars) > maxVars {
		return false
	}
	order := make([]int, 0, len(vars))
	for v := range vars {
		order = append(order, v)
	}
	sort.Ints(order)
	for _, v := range order {
		// The three buckets partition sys exactly, so len(sys) bounds each.
		pos := make([]refLinConstraint, 0, len(sys))
		neg := make([]refLinConstraint, 0, len(sys))
		rest := make([]refLinConstraint, 0, len(sys))
		for _, c := range sys {
			switch {
			case c.coef[v] > 0:
				pos = append(pos, c)
			case c.coef[v] < 0:
				neg = append(neg, c)
			default:
				rest = append(rest, c)
			}
		}
		sys = rest
		seen = map[string]bool{}
		for _, c := range sys {
			seen[c.key()] = true
		}
		for _, cp := range pos {
			for _, cn := range neg {
				a := cp.coef[v]
				b := -cn.coef[v]
				// b*cp + a*cn eliminates v.
				nc := refLinConstraint{coef: map[int]int{}, konst: b*cp.konst + a*cn.konst}
				for k, val := range cp.coef {
					nc.coef[k] += b * val
				}
				for k, val := range cn.coef {
					nc.coef[k] += a * val
				}
				delete(nc.coef, v)
				for k, val := range nc.coef {
					if val == 0 {
						delete(nc.coef, k)
					}
				}
				if push(nc) {
					return true
				}
				if len(sys) > maxCons {
					return false
				}
			}
		}
	}
	// All variables eliminated without contradiction.
	for _, c := range sys {
		if len(c.coef) == 0 && c.konst < 0 {
			return true
		}
	}
	return false
}

// refTighten divides by the gcd of the variable coefficients and floors the
// constant (integer tightening).
func refTighten(c refLinConstraint) refLinConstraint {
	g := 0
	for _, v := range c.coef {
		g = gcd(g, v)
	}
	if g <= 1 {
		return c
	}
	nc := refLinConstraint{coef: make(map[int]int, len(c.coef))}
	for k, v := range c.coef {
		nc.coef[k] = v / g
	}
	// floor division for possibly negative constants
	k := c.konst
	if k >= 0 {
		nc.konst = k / g
	} else {
		nc.konst = -((-k + g - 1) / g)
	}
	return nc
}
