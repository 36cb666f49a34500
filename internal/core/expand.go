package core

import (
	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// expander executes the candidate tactics of one node expansion, lazily
// and one at a time: a candidate runs on first use, so a Greedy search that
// stops at the first valid candidate never pays for the rest. The search
// consumes outcomes through expansion.step(i) in candidate order, whatever
// the backend, so an in-process and a remote search return the same
// Result, which TestSearchModeEquivalence and the scripts/check.sh
// full-sweep cmp gates enforce.
//
// The expander also owns the search's kernel.Scratch arena (DESIGN.md §13)
// when the document is a checker.ScratchTryer. The scratch recycles the
// tactic interpreter's transient buffers; the states a Try returns never
// alias them, so reuse across every Try of a search is safe.
type expander struct {
	doc checker.Doc
	st  checker.ScratchTryer
	sc  *kernel.Scratch // nil unless st is set

	// free recycles expansions.
	free []*expansion
}

func newExpander(doc checker.Doc) *expander {
	x := &expander{doc: doc}
	if st, ok := doc.(checker.ScratchTryer); ok {
		x.st = st
		x.sc = &kernel.Scratch{}
	}
	return x
}

// try executes one sentence, threading the search's scratch when the
// document supports it.
func (x *expander) try(parent *tactic.State, path []string, sentence string) checker.Step {
	if x.st != nil {
		return x.st.TryScratch(parent, path, sentence, x.sc)
	}
	return x.doc.Try(parent, path, sentence)
}

// expansion holds one node's candidates and their execution outcomes. The
// candidate slice is an owned copy: the model's Propose reuses its output
// scratch across queries, and a Linear search keeps expansions alive in
// backtracking frames long past the next Propose call.
type expansion struct {
	x      *expander
	parent *tactic.State
	path   []string
	cands  []model.Candidate
	steps  []checker.Step
	done   []bool
}

func (e *expansion) len() int                   { return len(e.cands) }
func (e *expansion) cand(i int) model.Candidate { return e.cands[i] }

// step returns candidate i's outcome, executing it on first use.
func (e *expansion) step(i int) checker.Step {
	if !e.done[i] {
		e.steps[i], e.done[i] = e.x.try(e.parent, e.path, e.cands[i].Tactic), true
	}
	return e.steps[i]
}

// get returns a recycled expansion with buffers sized for n candidates.
func (x *expander) get(n int) *expansion {
	if last := len(x.free) - 1; last >= 0 {
		e := x.free[last]
		x.free[last] = nil
		x.free = x.free[:last]
		if cap(e.cands) >= n {
			e.cands = e.cands[:n]
			e.steps = e.steps[:n]
			e.done = e.done[:n]
			for i := range e.done {
				e.done[i] = false
			}
			return e
		}
	}
	return &expansion{
		x:     x,
		cands: make([]model.Candidate, n),
		steps: make([]checker.Step, n),
		done:  make([]bool, n),
	}
}

// put recycles an expansion the search has fully merged. The search must
// not touch e afterwards; steps are cleared so recycled buffers do not pin
// retired proof states.
func (x *expander) put(e *expansion) {
	e.parent, e.path = nil, nil
	for i := range e.steps {
		e.steps[i] = checker.Step{}
		e.cands[i] = model.Candidate{}
	}
	x.free = append(x.free, e)
}

// expand copies the candidates into a recycled expansion; step executes
// them on demand.
//
//hot:root
func (x *expander) expand(parent *tactic.State, path []string, cands []model.Candidate) *expansion {
	e := x.get(len(cands))
	e.parent = parent
	e.path = path
	copy(e.cands, cands)
	return e
}
