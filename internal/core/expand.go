package core

import (
	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// expander executes the candidate tactics of one node expansion. It picks
// one of two strategies:
//
//   - batched: the document implements checker.BatchDoc (the remote
//     backend) — every unresolved candidate goes to the backend in one
//     round trip;
//   - lazy serial: otherwise, candidates are executed on first use (a
//     Greedy search that stops at the first valid candidate never pays for
//     the rest).
//
// Whatever the strategy, the search consumes outcomes through
// expansion.step(i) in candidate order, so results are identical across
// strategies, which TestSearchModeEquivalence and the scripts/check.sh
// full-sweep cmp gates enforce.
//
// The expander also owns the search's kernel.Scratch arena (DESIGN.md §13)
// when the document is a checker.ScratchTryer. The scratch recycles the
// tactic interpreter's transient buffers; the states a Try returns never
// alias them, so reuse across every Try of a search is safe.
type expander struct {
	doc   checker.Doc
	batch checker.BatchDoc
	st    checker.ScratchTryer
	cache *TryCache
	env   *kernel.Env
	sc    *kernel.Scratch // nil unless st is set

	// Recycled buffers.
	free []*expansion
	miss []int
}

func newExpander(cfg Config, doc checker.Doc) *expander {
	x := &expander{doc: doc, cache: cfg.Cache, env: cfg.Env}
	if bd, ok := doc.(checker.BatchDoc); ok {
		x.batch = bd
	}
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
	key    stateKey
	steps  []checker.Step
	done   []bool
}

func (e *expansion) len() int                   { return len(e.cands) }
func (e *expansion) cand(i int) model.Candidate { return e.cands[i] }

// step returns candidate i's outcome, executing it on demand under the
// serial strategy.
func (e *expansion) step(i int) checker.Step {
	if !e.done[i] {
		e.finish(i, e.x.try(e.parent, e.path, e.cands[i].Tactic))
	}
	return e.steps[i]
}

// finish records an outcome and publishes it to the shared Try cache.
func (e *expansion) finish(i int, step checker.Step) {
	e.steps[i] = step
	e.done[i] = true
	if e.x.cache != nil {
		e.x.cache.Put(e.x.env, e.key, e.cands[i].Tactic, step)
	}
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
	e.parent, e.path, e.key = nil, nil, stateKey{}
	for i := range e.steps {
		e.steps[i] = checker.Step{}
		e.cands[i] = model.Candidate{}
	}
	x.free = append(x.free, e)
}

// expand copies the candidates, resolves what the shared cache already
// knows, and — under the batched strategy — executes the rest eagerly.
// Serial consumers get a lazy expansion.
//
//hot:root
func (x *expander) expand(parent *tactic.State, path []string, cands []model.Candidate) *expansion {
	e := x.get(len(cands))
	e.parent = parent
	e.path = path
	copy(e.cands, cands)
	if x.cache != nil {
		// The strict TryCache identity is the state's 128-bit StrictKey — an
		// O(#goals) combine over stored node hashes; no rendering happens.
		e.key = parent.StrictKey()
		for i := range e.cands {
			if step, ok := x.cache.Get(x.env, e.key, e.cands[i].Tactic); ok {
				e.steps[i], e.done[i] = step, true
			}
		}
	}
	if x.batch == nil {
		return e
	}
	miss := x.miss[:0]
	for i := range e.cands {
		if !e.done[i] {
			miss = append(miss, i)
		}
	}
	x.miss = miss[:0]
	if len(miss) == 0 {
		return e
	}
	sentences := make([]string, len(miss))
	for j, i := range miss {
		sentences[j] = e.cands[i].Tactic
	}
	steps := x.batch.TryBatch(parent, path, sentences)
	for j, i := range miss {
		e.finish(i, steps[j])
	}
	return e
}
