package tactic

import (
	"errors"

	"llmfscq/internal/kernel"
)

// tacCongruence decides the theory of equality with uninterpreted function
// symbols and constructors: congruence closure over the equational
// hypotheses, extended with constructor injectivity and discrimination. It
// proves equality goals entailed by the closure, disequality goals whose
// assumption is inconsistent, and any goal when the hypotheses are
// themselves inconsistent.
func tacCongruence(env *kernel.Env, g *Goal) ([]*Goal, error) {
	cc := newCongruence(env)
	var diseqs [][2]*kernel.Term
	for _, h := range g.Hyps {
		switch h.Form.Kind {
		case kernel.FEq:
			cc.addEq(h.Form.T1, h.Form.T2)
		case kernel.FNot:
			if h.Form.L.Kind == kernel.FEq {
				a, b := h.Form.L.T1, h.Form.L.T2
				cc.addTerm(a)
				cc.addTerm(b)
				diseqs = append(diseqs, [2]*kernel.Term{a, b})
			}
		}
	}
	inconsistent := func(c *congruence) bool {
		if c.clash {
			return true
		}
		for _, d := range diseqs {
			if c.find(c.id(d[0])) == c.find(c.id(d[1])) {
				return true
			}
		}
		return false
	}
	cc.close()
	if inconsistent(cc) {
		return nil, nil
	}
	switch g.Concl.Kind {
	case kernel.FEq:
		a, b := g.Concl.T1, g.Concl.T2
		cc.addTerm(a)
		cc.addTerm(b)
		cc.close()
		if inconsistent(cc) || cc.find(cc.id(a)) == cc.find(cc.id(b)) {
			return nil, nil
		}
		return nil, errors.New("tactic: congruence cannot prove the equality")
	case kernel.FNot:
		if g.Concl.L.Kind == kernel.FEq {
			trial := newCongruence(env)
			for _, h := range g.Hyps {
				if h.Form.Kind == kernel.FEq {
					trial.addEq(h.Form.T1, h.Form.T2)
				}
			}
			trial.addEq(g.Concl.L.T1, g.Concl.L.T2)
			trial.close()
			if inconsistent(trial) {
				return nil, nil
			}
		}
		return nil, errors.New("tactic: congruence cannot refute the equality")
	case kernel.FFalse:
		return nil, errors.New("tactic: hypotheses are consistent")
	default:
		return nil, errors.New("tactic: congruence expects an equality-shaped goal")
	}
}

// congruence is a small congruence-closure engine over a finite term
// universe with union-find, congruence propagation, and constructor
// injectivity/discrimination.
type congruence struct {
	env    *kernel.Env
	ids    map[*kernel.Term]int // interned, so one pointer per structure
	terms  []*kernel.Term
	parent []int
	clash  bool
	// pending equalities queued by injectivity
	queue [][2]int
}

func newCongruence(env *kernel.Env) *congruence {
	return &congruence{env: env, ids: map[*kernel.Term]int{}}
}

func (c *congruence) id(t *kernel.Term) int {
	if id, ok := c.ids[t]; ok {
		return id
	}
	id := len(c.terms)
	c.ids[t] = id
	c.terms = append(c.terms, t)
	c.parent = append(c.parent, id)
	return id
}

// addTerm registers t and all of its subterms.
func (c *congruence) addTerm(t *kernel.Term) {
	t.Subterms(func(u *kernel.Term) bool {
		if u.Match == nil {
			c.id(u)
		}
		return true
	})
}

func (c *congruence) addEq(a, b *kernel.Term) {
	c.addTerm(a)
	c.addTerm(b)
	c.queue = append(c.queue, [2]int{c.id(a), c.id(b)})
}

func (c *congruence) find(i int) int {
	for c.parent[i] != i {
		c.parent[i] = c.parent[c.parent[i]]
		i = c.parent[i]
	}
	return i
}

func (c *congruence) union(i, j int) {
	ri, rj := c.find(i), c.find(j)
	if ri != rj {
		c.parent[ri] = rj
	}
}

// close computes the congruence closure with injectivity and clash
// detection; sets clash on inconsistency.
func (c *congruence) close() {
	for _, q := range c.queue {
		c.union(q[0], q[1])
	}
	c.queue = nil
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		changed := false
		// Congruence: same head, equivalent args → merge.
		for i, ti := range c.terms {
			if !ti.IsApp() || len(ti.Args) == 0 {
				continue
			}
			for j := i + 1; j < len(c.terms); j++ {
				tj := c.terms[j]
				if !tj.IsApp() || tj.Fun != ti.Fun || len(tj.Args) != len(ti.Args) {
					continue
				}
				if c.find(i) == c.find(j) {
					continue
				}
				same := true
				for k := range ti.Args {
					if c.find(c.id(ti.Args[k])) != c.find(c.id(tj.Args[k])) {
						same = false
						break
					}
				}
				if same {
					c.union(i, j)
					changed = true
				}
			}
		}
		// Injectivity and discrimination on constructor-headed members of
		// the same class.
		classes := map[int][]int{}
		for i := range c.terms {
			r := c.find(i)
			classes[r] = append(classes[r], i)
		}
		for _, members := range classes {
			var ctors []int
			for _, m := range members {
				t := c.terms[m]
				if t.IsApp() && c.env.IsConstructor(t.Fun) {
					ctors = append(ctors, m)
				}
			}
			for x := 0; x < len(ctors); x++ {
				for y := x + 1; y < len(ctors); y++ {
					a, b := c.terms[ctors[x]], c.terms[ctors[y]]
					if a.Fun != b.Fun || len(a.Args) != len(b.Args) {
						c.clash = true
						return
					}
					for k := range a.Args {
						ia, ib := c.id(a.Args[k]), c.id(b.Args[k])
						if c.find(ia) != c.find(ib) {
							c.union(ia, ib)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}
