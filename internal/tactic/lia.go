package tactic

import (
	"errors"
	"sync"

	"llmfscq/internal/kernel"
)

// Shared rejections: a rejection need not allocate (see apply.go).
var (
	errNotLinear = errors.New("tactic: goal is not linear arithmetic")
	errLiaFails  = errors.New("tactic: omega cannot prove the goal")
)

// The Fourier–Motzkin cut-offs: a system over more atoms, or one whose
// elimination holds more constraints, is given up as not refuted.
const maxVars, maxCons = 24, 600

// tacLia, the omega tactic, decides linear arithmetic over the naturals: it
// linearizes the hypotheses and the negated goal into constraints of the
// form `expr >= 0`, atomizing non-linear subterms, and refutes them with
// Fourier–Motzkin elimination plus integer (gcd) tightening. Natural
// subtraction `a - b` is approximated by an atom m with m >= a-b, m >= 0,
// m <= a, which is sound (every provable goal stays provable) but
// incomplete for goals that need the exact truncation case split.
//
// An atom is an interned term, so it is keyed by its pointer: structurally
// equal terms are one atom, and a variable and a constant of the same name
// are two. All working storage comes from a pooled linearizer, so a warm
// call allocates nothing.
func tacLia(env *kernel.Env, g *Goal) ([]*Goal, error) {
	lz := liaPool.Get().(*linearizer)
	defer lz.release()

	for _, h := range g.Hyps {
		lz.constraintsOf(h.Form, false) // non-arithmetic hypotheses add nothing
	}
	nhyp := len(lz.cons)
	if !lz.negatedGoal(g.Concl) {
		return nil, errNotLinear
	}
	// Non-negativity of every atom: atom id's row is units[id:id+1].
	start := len(lz.slab)
	for id := range lz.atoms {
		lz.slab = append(lz.slab, linTerm{atom: id, coef: 1})
	}
	units := lz.slab[start:len(lz.slab):len(lz.slab)]

	// The negated goal may be a disjunction (from equalities); every branch
	// must be refuted.
	mark, from := len(lz.slab), nhyp
	for _, to := range lz.alts {
		if !lz.fmUnsat(lz.cons[:nhyp], units, lz.cons[from:to]) {
			return nil, errLiaFails
		}
		lz.slab, from = lz.slab[:mark], to
	}
	return nil, nil
}

// linTerm is one summand coef·atom of a linear expression.
type linTerm struct{ atom, coef int }

// linCon represents konst + Σ ts[i].coef·ts[i].atom >= 0. Its terms are
// sorted by atom and hold no zero coefficient, so two constraints are equal
// exactly when their constants and terms are. The terms are cut from the
// linearizer's slab; once a constraint is in a system, nothing writes them.
type linCon struct {
	konst int
	ts    []linTerm
}

// linearizer holds one omega call's working storage. Every slice is reused
// across calls through liaPool; release empties them.
type linearizer struct {
	atoms []*kernel.Term // atom id -> term, in first-occurrence order
	expr  []linTerm      // lin's scratch: terms of the expressions being built
	slab  []linTerm      // the constraints' terms
	cons  []linCon       // the hypotheses' constraints, then the negated goal's
	alts  []int          // the end in cons of each negated-goal alternative
	aux   []linCon       // the bounds of the minus atoms

	// Fourier–Motzkin: the working system and the buffer the next round's
	// survivors go into, the round's positive and negative rows, and a hash
	// index over the system.
	sys, next, pos, neg []linCon
	index               []int32 // position in sys + 1; 0 is empty
}

var liaPool = sync.Pool{New: func() any { return new(linearizer) }}

// slabKeep bounds the terms (16 bytes each) of a linearizer the pool
// keeps: after a rare large elimination the whole linearizer goes to the
// collector rather than pinning its slab in the pool.
const slabKeep = 1 << 14

func (lz *linearizer) release() {
	if cap(lz.slab) > slabKeep {
		return
	}
	lz.atoms, lz.expr, lz.slab = lz.atoms[:0], lz.expr[:0], lz.slab[:0]
	lz.cons, lz.alts, lz.aux = lz.cons[:0], lz.alts[:0], lz.aux[:0]
	liaPool.Put(lz)
}

func (lz *linearizer) atomID(t *kernel.Term) int {
	for id, a := range lz.atoms {
		if a == t {
			return id
		}
	}
	lz.atoms = append(lz.atoms, t)
	return len(lz.atoms) - 1
}

// lin appends the terms of t's linear form to lz.expr, sorted by atom and
// without zeros, and returns its constant; non-linear subterms become
// atoms. ok=false only for terms that cannot even be atomized.
func (lz *linearizer) lin(t *kernel.Term) (int, bool) {
	switch {
	case t == nil:
		return 0, false
	case t.IsVar(), t.Match != nil:
		lz.expr = append(lz.expr, linTerm{lz.atomID(t), 1})
		return 0, true
	case t.Fun == "O" && len(t.Args) == 0:
		return 0, true
	case t.Fun == "S" && len(t.Args) == 1:
		k, ok := lz.lin(t.Args[0])
		return k + 1, ok
	case t.Fun == "plus" && len(t.Args) == 2:
		mark := len(lz.expr)
		k1, ok1 := lz.lin(t.Args[0])
		k2, ok2 := lz.lin(t.Args[1])
		if !ok1 || !ok2 {
			lz.expr = lz.expr[:mark]
			return 0, false
		}
		lz.expr = lz.expr[:mark+normalize(lz.expr[mark:])]
		return k1 + k2, true
	case t.Fun == "mult" && len(t.Args) == 2:
		mark := len(lz.expr)
		k1, ok1 := lz.lin(t.Args[0])
		mid := len(lz.expr)
		k2, ok2 := lz.lin(t.Args[1])
		if ok1 && mid == mark { // constant * expr
			lz.scale(mark, k1)
			return k1 * k2, ok2
		}
		if ok2 && len(lz.expr) == mid {
			lz.scale(mark, k2)
			return k1 * k2, ok1
		}
		lz.expr = append(lz.expr[:mark], linTerm{lz.atomID(t), 1})
		return 0, true
	case t.Fun == "minus" && len(t.Args) == 2:
		// m := a - b (truncated): introduce atom with sound bounds.
		id := lz.atomID(t)
		mark := len(lz.expr)
		ka, oka := lz.lin(t.Args[0])
		mid := len(lz.expr)
		kb, okb := lz.lin(t.Args[1])
		if oka && okb {
			a, b := lz.expr[mark:mid], lz.expr[mid:]
			// m - a + b >= 0
			start := len(lz.slab)
			lz.slab = append(lz.slab, linTerm{id, 1})
			lz.appendScaled(a, -1)
			lz.slab = append(lz.slab, b...)
			lz.aux = append(lz.aux, lz.seal(-ka+kb, start))
			// a - m >= 0
			start = len(lz.slab)
			lz.slab = append(lz.slab, a...)
			lz.slab = append(lz.slab, linTerm{id, -1})
			lz.aux = append(lz.aux, lz.seal(ka, start))
		}
		lz.expr = append(lz.expr[:mark], linTerm{id, 1})
		return 0, true
	default:
		lz.expr = append(lz.expr, linTerm{lz.atomID(t), 1})
		return 0, true
	}
}

// scale multiplies the expression terms from mark on by s, dropping the
// products that are zero.
func (lz *linearizer) scale(mark, s int) {
	n := mark
	for _, x := range lz.expr[mark:] {
		if x.coef*s != 0 {
			lz.expr[n] = linTerm{x.atom, x.coef * s}
			n++
		}
	}
	lz.expr = lz.expr[:n]
}

// appendScaled appends s·ts to the slab.
func (lz *linearizer) appendScaled(ts []linTerm, s int) {
	for _, x := range ts {
		lz.slab = append(lz.slab, linTerm{x.atom, x.coef * s})
	}
}

// seal makes the slab's terms from start on a constraint with constant
// konst, summing the terms of each atom.
func (lz *linearizer) seal(konst, start int) linCon {
	end := start + normalize(lz.slab[start:])
	lz.slab = lz.slab[:end]
	return linCon{konst: konst, ts: lz.slab[start:end:end]}
}

// normalize sorts ts by atom in place, sums the coefficients of each atom
// and drops the zero sums, and returns how many terms are left. The lists
// are a few terms long, so an insertion sort does.
func normalize(ts []linTerm) int {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].atom < ts[j-1].atom; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	n := 0
	for i := 0; i < len(ts); {
		x := ts[i]
		for i++; i < len(ts) && ts[i].atom == x.atom; i++ {
			x.coef += ts[i].coef
		}
		if x.coef != 0 {
			ts[n] = x
			n++
		}
	}
	return n
}

// geZero appends the constraint a - b - slack >= 0 ... concretely
// lhsConst + lhs - (rhsConst + rhs) - slack >= 0.
func (lz *linearizer) geZero(a, b *kernel.Term, slack int) bool {
	mark := len(lz.expr)
	ka, oka := lz.lin(a)
	mid := len(lz.expr)
	kb, okb := lz.lin(b)
	if oka && okb {
		start := len(lz.slab)
		lz.slab = append(lz.slab, lz.expr[mark:mid]...)
		lz.appendScaled(lz.expr[mid:], -1)
		lz.cons = append(lz.cons, lz.seal(ka-kb-slack, start))
	}
	lz.expr = lz.expr[:mark]
	return oka && okb
}

// constraintsOf appends the constraints of a hypothesis (or, when neg is
// true, of its negation) to lz.cons. Only conjunction-free arithmetic
// shapes are handled; on failure it appends nothing.
func (lz *linearizer) constraintsOf(f *kernel.Form, neg bool) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case kernel.FNot:
		return lz.constraintsOf(f.L, !neg)
	case kernel.FPred:
		if len(f.Args) != 2 {
			return false
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
		return false
	case kernel.FEq:
		if neg {
			// Disequalities in hypotheses would need a case split; skip them
			// (sound: we just use less information).
			return false
		}
		mark := len(lz.cons)
		ok1 := lz.geZero(f.T1, f.T2, 0)
		ok2 := lz.geZero(f.T2, f.T1, 0)
		if !ok1 || !ok2 {
			lz.cons = lz.cons[:mark]
			return false
		}
		return true
	case kernel.FAnd:
		if neg {
			return false
		}
		ok1 := lz.constraintsOf(f.L, false)
		ok2 := lz.constraintsOf(f.R, false)
		return ok1 || ok2
	}
	return false
}

// negatedGoal appends the disjunctive alternatives of the goal's negation
// to lz.cons, closing each in lz.alts; the goal is proved when each
// alternative is unsatisfiable together with the hypotheses. On failure
// omega rejects the goal, so what it appended does not matter.
func (lz *linearizer) negatedGoal(f *kernel.Form) bool {
	switch f.Kind {
	case kernel.FFalse:
	case kernel.FPred:
		if !lz.constraintsOf(f, true) {
			return false
		}
	case kernel.FEq:
		// neg is a disequality: a < b or b < a.
		if !lz.geZero(f.T1, f.T2, 1) { // a - b - 1 >= 0  (a > b)
			return false
		}
		lz.alts = append(lz.alts, len(lz.cons))
		if !lz.geZero(f.T2, f.T1, 1) {
			return false
		}
	case kernel.FNot:
		inner := f.L
		switch inner.Kind {
		case kernel.FEq:
			// neg of (a <> b) is a = b.
			if !lz.geZero(inner.T1, inner.T2, 0) || !lz.geZero(inner.T2, inner.T1, 0) {
				return false
			}
		case kernel.FPred:
			if !lz.constraintsOf(inner, false) {
				return false
			}
		default:
			return false
		}
	case kernel.FAnd:
		// Goal A /\ B: ~(A/\B) is a disjunction requiring each branch
		// refuted, so the alternatives of both sides are kept.
		return lz.negatedGoal(f.L) && lz.negatedGoal(f.R)
	default:
		return false
	}
	lz.alts = append(lz.alts, len(lz.cons))
	return true
}

// fmUnsat decides by Fourier–Motzkin with gcd tightening whether the
// hypotheses, the minus atoms' bounds, the non-negativity rows (units) and
// the alternative are unsatisfiable together, in that order.
func (lz *linearizer) fmUnsat(hyps []linCon, units []linTerm, alt []linCon) bool {
	lz.sys = lz.sys[:0]
	lz.resetIndex()
	for _, c := range hyps {
		if lz.pushInput(c) {
			return true
		}
	}
	for _, c := range lz.aux {
		if lz.pushInput(c) {
			return true
		}
	}
	for id := range units {
		if lz.pushInput(linCon{ts: units[id : id+1 : id+1]}) {
			return true
		}
	}
	for _, c := range alt {
		if lz.pushInput(c) {
			return true
		}
	}

	// Every atom's unit row is in the system, so every atom is a variable.
	if len(lz.atoms) > maxVars {
		return false
	}
	// Variables go in ascending order, so when v is eliminated every row's
	// smallest atom is v or larger: v's coefficient, if any, is ts[0].
	for v := range lz.atoms {
		pos, neg, rest := lz.pos[:0], lz.neg[:0], lz.next[:0]
		for _, c := range lz.sys {
			switch {
			case c.ts[0].atom != v:
				rest = append(rest, c)
			case c.ts[0].coef > 0:
				pos = append(pos, c)
			default:
				neg = append(neg, c)
			}
		}
		lz.pos, lz.neg = pos, neg
		lz.sys, lz.next = rest, lz.sys
		lz.resetIndex()
		for i := range lz.sys {
			lz.insert(i)
		}
		for _, cp := range pos {
			for _, cn := range neg {
				start, n := len(lz.slab), len(lz.sys)
				if lz.push(lz.combine(cp, cn)) {
					return true
				}
				if len(lz.sys) == n { // dropped: its terms go back
					lz.slab = lz.slab[:start]
				}
				if len(lz.sys) > maxCons {
					return false
				}
			}
		}
	}
	// All variables eliminated without contradiction: push keeps no row
	// without variables, so none is left to contradict.
	return false
}

// combine eliminates the shared smallest atom of cp (positive coefficient
// a) and cn (negative, -b): b*cp + a*cn, built at the slab's tail.
func (lz *linearizer) combine(cp, cn linCon) linCon {
	a, b := cp.ts[0].coef, -cn.ts[0].coef
	start := len(lz.slab)
	p, n := cp.ts[1:], cn.ts[1:]
	for len(p) > 0 || len(n) > 0 {
		var x linTerm
		switch {
		case len(n) == 0 || len(p) > 0 && p[0].atom < n[0].atom:
			x = linTerm{p[0].atom, b * p[0].coef}
			p = p[1:]
		case len(p) == 0 || n[0].atom < p[0].atom:
			x = linTerm{n[0].atom, a * n[0].coef}
			n = n[1:]
		default:
			x = linTerm{p[0].atom, b*p[0].coef + a*n[0].coef}
			p, n = p[1:], n[1:]
		}
		if x.coef != 0 {
			lz.slab = append(lz.slab, x)
		}
	}
	end := len(lz.slab)
	return linCon{konst: b*cp.konst + a*cn.konst, ts: lz.slab[start:end:end]}
}

// pushInput pushes an input constraint, which the alternatives share: a
// tightened copy goes to the slab instead of rewriting it.
func (lz *linearizer) pushInput(c linCon) bool {
	if g := coefGCD(c.ts); g > 1 {
		start := len(lz.slab)
		lz.slab = append(lz.slab, c.ts...)
		c.ts = lz.slab[start:len(lz.slab):len(lz.slab)]
	}
	return lz.push(c)
}

// push tightens c in place and adds it to the system unless the system
// holds it already. It reports a contradiction: no variables left and a
// negative constant. Only a c with a coefficient gcd of 1 may share its
// terms, since tightening rewrites them.
func (lz *linearizer) push(c linCon) bool {
	if g := coefGCD(c.ts); g > 1 {
		for i := range c.ts {
			c.ts[i].coef /= g
		}
		// floor division for possibly negative constants
		if k := c.konst; k >= 0 {
			c.konst = k / g
		} else {
			c.konst = -((-k + g - 1) / g)
		}
	}
	if len(c.ts) == 0 || lz.find(c) {
		return len(c.ts) == 0 && c.konst < 0
	}
	lz.sys = append(lz.sys, c)
	lz.insert(len(lz.sys) - 1)
	return false
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// coefGCD is the gcd of the coefficients, 0 for none.
func coefGCD(ts []linTerm) int {
	g := 0
	for _, x := range ts {
		g = gcd(g, x.coef)
	}
	return g
}

// resetIndex empties the hash index, sized for the system it will hold.
func (lz *linearizer) resetIndex() {
	n := 16
	for n < 2*len(lz.sys) {
		n *= 2
	}
	if cap(lz.index) < n {
		lz.index = make([]int32, n)
	}
	lz.index = lz.index[:n]
	clear(lz.index)
}

func conHash(c linCon) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(c.konst) * m
	for _, x := range c.ts {
		h = (h ^ uint64(x.atom)) * m
		h = (h ^ uint64(x.coef)) * m
	}
	return h ^ h>>29
}

func sameCon(a, b linCon) bool {
	if a.konst != b.konst || len(a.ts) != len(b.ts) {
		return false
	}
	for i := range a.ts {
		if a.ts[i] != b.ts[i] {
			return false
		}
	}
	return true
}

// find reports whether the system holds c.
func (lz *linearizer) find(c linCon) bool {
	mask := uint64(len(lz.index) - 1)
	for h := conHash(c) & mask; lz.index[h] != 0; h = (h + 1) & mask {
		if sameCon(lz.sys[lz.index[h]-1], c) {
			return true
		}
	}
	return false
}

// insert indexes sys[i], growing the index past half full.
func (lz *linearizer) insert(i int) {
	if 2*(i+1) > len(lz.index) {
		lz.resetIndex()
		for j := 0; j < i; j++ {
			lz.insert(j)
		}
	}
	mask := uint64(len(lz.index) - 1)
	h := conHash(lz.sys[i]) & mask
	for lz.index[h] != 0 {
		h = (h + 1) & mask
	}
	lz.index[h] = int32(i + 1)
}
