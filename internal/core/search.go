// Package core implements the paper's primary contribution: best-first
// tree search over proof states, scored by the cumulative log-probability
// of the tactics on the path from the root (§3). It also provides the
// trial-and-error linear search the paper contrasts with (Rango-style) and
// a greedy variant used for ablations.
//
// A tactic is invalid if it (1) is rejected by the checker, (2) reaches a
// proof state already encountered in the search tree, or (3) exceeds the
// computation budget (the paper's 5-second timeout). The search succeeds
// when all goals are proven; it fails "stuck" when no unexpanded goal
// remains and "fuelout" when the model-query limit is reached.
package core

import (
	"container/heap"

	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// Status is the outcome of a proof search.
type Status int

// Search outcomes, matching the paper's Table 2 taxonomy.
const (
	Proved Status = iota
	Stuck
	Fuelout
)

func (s Status) String() string {
	switch s {
	case Proved:
		return "proved"
	case Stuck:
		return "stuck"
	case Fuelout:
		return "fuelout"
	default:
		return "unknown"
	}
}

// Proposer produces tactic candidates for the focused goal of a state;
// path is the tactic sequence from the root. Implemented by the simulated
// model; any future real-LLM client satisfies it too.
type Proposer func(st *tactic.State, path []string) []model.Candidate

// Config parameterizes one search.
type Config struct {
	Env  *kernel.Env
	Stmt *kernel.Form
	// Propose queries the model (counted against QueryLimit).
	Propose Proposer
	// Width caps candidates expanded per query (paper: 8).
	Width int
	// QueryLimit caps model queries (paper: 128).
	QueryLimit int
	// Backend executes tactics (nil: in-process). Backends mask their own
	// failures, so the search logic is backend-agnostic.
	Backend checker.Backend
	// Lemma is the corpus name of Stmt when it has one; remote backends
	// key the server-side environment restriction on it.
	Lemma string
	// Cache, when non-nil, memoizes Try outcomes across the searches that
	// share it (keyed on env identity + concrete parent state + sentence).
	Cache *TryCache
}

// open creates the proof document for this search. Backend failures never
// stop a search: the in-process document is the universal fallback.
func (c Config) open() checker.Doc {
	be := c.Backend
	if be == nil {
		be = checker.InProcess{}
	}
	doc, err := be.NewDoc(c.Env, c.Stmt, c.Lemma)
	if err != nil {
		doc, _ = checker.InProcess{}.NewDoc(c.Env, c.Stmt, c.Lemma)
	}
	return doc
}

// Result reports a search outcome.
type Result struct {
	Status Status
	// Proof is the tactic script when Status == Proved.
	Proof []string
	// Queries is the number of model queries consumed.
	Queries int
	// Expanded is the number of nodes expanded.
	Expanded int
	// Invalid counts candidate tactics found invalid, by reason.
	InvalidRejected, InvalidDuplicate, InvalidTimeout int
}

// node is a search-tree node: a proof state reached by a tactic path.
type node struct {
	state  *tactic.State
	parent *node
	tac    string
	cum    float64 // cumulative log-probability from the root
	depth  int     // tactics from the root; len(path()) without the walk
	index  int     // heap bookkeeping
	seq    int     // insertion order for deterministic tie-breaking
}

func (n *node) path() []string {
	out := make([]string, n.depth)
	for cur := n; cur.parent != nil; cur = cur.parent {
		out[cur.depth-1] = cur.tac
	}
	return out
}

// newSeen pre-sizes the duplicate-state set for a handful of full-width
// expansions — the common case; most searches resolve in far fewer queries
// than the limit, so sizing for the worst case (QueryLimit*Width entries)
// wastes more allocation per search than rehashing ever costs on the rare
// deep one. The set keys on the 128-bit alpha-insensitive FingerprintKey:
// fixed-size keys combined from precomputed node hashes, no rendering.
func newSeen(cfg Config, root *node) map[[2]uint64]bool {
	size := 8 * cfg.Width
	if size < 16 {
		size = 16
	}
	seen := make(map[[2]uint64]bool, size)
	seen[root.state.FingerprintKey()] = true
	return seen
}

// nodeHeap is a max-heap on cumulative log-probability.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].cum != h[j].cum {
		return h[i].cum > h[j].cum
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *nodeHeap) Push(x any) {
	n := x.(*node)
	n.index = len(*h)
	*h = append(*h, n)
}
func (h *nodeHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

func (c Config) defaults() Config {
	if c.Width <= 0 {
		c.Width = 8
	}
	if c.QueryLimit <= 0 {
		c.QueryLimit = 128
	}
	return c
}

// BestFirst runs the paper's search:
//
//	Selection: pop the unexpanded goal with the highest cumulative
//	log-probability. Expansion: query the model; append each valid
//	predicted tactic as a child.
//
//hot:root
func BestFirst(cfg Config) Result {
	cfg = cfg.defaults()
	res := Result{}
	doc := cfg.open()
	defer doc.Close()
	x := newExpander(cfg, doc)
	root := &node{state: doc.Root()}
	seen := newSeen(cfg, root)
	open := &nodeHeap{}
	heap.Init(open)
	heap.Push(open, root)
	seq := 0

	for open.Len() > 0 {
		if res.Queries >= cfg.QueryLimit {
			res.Status = Fuelout
			return res
		}
		best := heap.Pop(open).(*node)
		res.Queries++
		res.Expanded++
		path := best.path()
		cands := cfg.Propose(best.state, path)
		if len(cands) > cfg.Width {
			cands = cands[:cfg.Width]
		}
		// Outcomes are consumed in candidate order, so the counters, the
		// seen set, and the early Proved exit are identical whether the
		// expansion ran lazily or batched.
		exp := x.expand(best.state, path, cands)
		for i := 0; i < exp.len(); i++ {
			cand := exp.cand(i)
			out := exp.step(i)
			switch out.Status {
			case checker.Rejected:
				res.InvalidRejected++
				continue
			case checker.Timeout:
				res.InvalidTimeout++
				continue
			}
			child := &node{
				state:  out.State,
				parent: best,
				tac:    cand.Tactic,
				cum:    best.cum + cand.LogProb,
				depth:  best.depth + 1,
			}
			if out.State.Done() {
				res.Status = Proved
				res.Proof = child.path()
				return res
			}
			fp := out.State.FingerprintKey()
			if seen[fp] {
				res.InvalidDuplicate++
				continue
			}
			seen[fp] = true
			seq++
			child.seq = seq
			heap.Push(open, child)
		}
		x.put(exp)
	}
	res.Status = Stuck
	return res
}

// Linear runs the Rango-style trial-and-error linear search baseline: at
// each state take the first valid candidate in model order; on a dead end,
// backtrack to the most recent state with untried candidates.
//
//hot:root
func Linear(cfg Config) Result {
	cfg = cfg.defaults()
	res := Result{}
	doc := cfg.open()
	defer doc.Close()
	x := newExpander(cfg, doc)
	type frame struct {
		n    *node
		exp  *expansion
		next int
	}
	root := &node{state: doc.Root()}
	seen := newSeen(cfg, root)
	var stack []frame

	expand := func(n *node) bool {
		if res.Queries >= cfg.QueryLimit {
			return false
		}
		res.Queries++
		res.Expanded++
		path := n.path()
		cands := cfg.Propose(n.state, path)
		if len(cands) > cfg.Width {
			cands = cands[:cfg.Width]
		}
		// The expansion owns a copy of cands: frames outlive the model's
		// proposal scratch, which the next Propose call overwrites.
		stack = append(stack, frame{n: n, exp: x.expand(n.state, path, cands)})
		return true
	}
	if !expand(root) {
		res.Status = Fuelout
		return res
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next >= top.exp.len() {
			x.put(top.exp)
			stack[len(stack)-1] = frame{}
			stack = stack[:len(stack)-1]
			continue
		}
		i := top.next
		top.next++
		cand := top.exp.cand(i)
		out := top.exp.step(i)
		switch out.Status {
		case checker.Rejected:
			res.InvalidRejected++
			continue
		case checker.Timeout:
			res.InvalidTimeout++
			continue
		}
		child := &node{state: out.State, parent: top.n, tac: cand.Tactic, depth: top.n.depth + 1}
		if out.State.Done() {
			res.Status = Proved
			res.Proof = child.path()
			return res
		}
		fp := out.State.FingerprintKey()
		if seen[fp] {
			res.InvalidDuplicate++
			continue
		}
		seen[fp] = true
		if !expand(child) {
			res.Status = Fuelout
			return res
		}
	}
	res.Status = Stuck
	return res
}

// Greedy is the no-backtracking ablation: always follow the single best
// valid candidate.
//
//hot:root
func Greedy(cfg Config) Result {
	cfg = cfg.defaults()
	res := Result{}
	doc := cfg.open()
	defer doc.Close()
	x := newExpander(cfg, doc)
	cur := &node{state: doc.Root()}
	seen := newSeen(cfg, cur)
	for {
		if res.Queries >= cfg.QueryLimit {
			res.Status = Fuelout
			return res
		}
		res.Queries++
		res.Expanded++
		path := cur.path()
		cands := cfg.Propose(cur.state, path)
		if len(cands) > cfg.Width {
			cands = cands[:cfg.Width]
		}
		exp := x.expand(cur.state, path, cands)
		var next *node
		for i := 0; i < exp.len(); i++ {
			cand := exp.cand(i)
			out := exp.step(i)
			switch out.Status {
			case checker.Rejected:
				res.InvalidRejected++
				continue
			case checker.Timeout:
				res.InvalidTimeout++
				continue
			}
			child := &node{state: out.State, parent: cur, tac: cand.Tactic, depth: cur.depth + 1}
			if out.State.Done() {
				res.Status = Proved
				res.Proof = child.path()
				return res
			}
			fp := out.State.FingerprintKey()
			if seen[fp] {
				res.InvalidDuplicate++
				continue
			}
			seen[fp] = true
			next = child
			break
		}
		x.put(exp)
		if next == nil {
			res.Status = Stuck
			return res
		}
		cur = next
	}
}
