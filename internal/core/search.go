// Package core implements the paper's primary contribution: best-first
// tree search over proof states, scored by the cumulative log-probability
// of the tactics on the path from the root (§3). It also provides the
// trial-and-error linear search the paper contrasts with (Rango-style) and
// a greedy variant used for ablations. The three differ only in which node
// they expand next: each spends a query on it and runs its candidates
// through one shared step.
//
// A tactic is invalid if it (1) is rejected by the checker, (2) reaches a
// proof state already encountered in the search tree, or (3) exceeds the
// computation budget (the paper's 5-second timeout). The search succeeds
// when all goals are proven; it fails "stuck" when no unexpanded goal
// remains and "fuelout" when the model-query limit is reached.
package core

import (
	"container/heap"
	"slices"
	"sync"

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
	// Width caps candidates expanded per query (paper: 8). The width only
	// truncates each query's candidate list (and sizes the duplicate-state
	// set, which changes no result): a proposer that returns at most k
	// candidates per query gives the same search at every width of k or
	// more. So an outcome at width k answers every larger width (eval's
	// outcome tier keys a width at or above the model's output cap as the
	// cap).
	Width int
	// QueryLimit caps model queries (paper: 128). The limit only stops the
	// search: a search at limit L makes the same first L queries as the
	// same search at any larger limit. So an outcome at one limit answers
	// every smaller one (eval's outcome tier relies on this): it stands if
	// the search did not run out of fuel and used at most L queries, and is
	// Fuelout with L queries otherwise.
	QueryLimit int
	// Backend executes tactics (nil: in-process). Backends mask their own
	// failures, so the search logic is backend-agnostic.
	Backend checker.Backend
	// Lemma is the corpus name of Stmt when it has one; remote backends
	// key the server-side environment restriction on it.
	Lemma string
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

// seenPool recycles the duplicate-state sets of finished searches: a
// cleared map keeps its room, so a search grows its set only past what an
// earlier search on the same worker already grew. The set keys on the
// 128-bit alpha-insensitive FingerprintKey: fixed-size keys combined from
// precomputed node hashes, no rendering.
var seenPool = sync.Pool{New: func() any { return map[[2]uint64]bool{} }}

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

// WithDefaults returns c with a non-positive Width or QueryLimit replaced
// by the paper's 8 or 128: the budget a search with c actually runs at.
// Callers that key outcomes on the budget (eval's outcome tiers) key on
// these values, so a zero and its default name the same search.
func (c Config) WithDefaults() Config {
	if c.Width <= 0 {
		c.Width = 8
	}
	if c.QueryLimit <= 0 {
		c.QueryLimit = 128
	}
	return c
}

// search is the state one search threads through its selection loop: the
// document, the scratch arena, the duplicate-state set and the Result so
// far. BestFirst, Linear and Greedy differ only in which node they hand to
// query next and which children they keep.
type search struct {
	cfg  Config
	doc  checker.Doc
	st   checker.ScratchTryer
	sc   *kernel.Scratch // nil unless st is set
	seen map[[2]uint64]bool
	res  Result
}

// newSearch opens the document and returns the search with its root node.
// When the document is a checker.ScratchTryer, the search owns one
// kernel.Scratch (DESIGN.md §13) for every Try it makes: the scratch
// recycles the tactic interpreter's transient buffers, and the states a
// Try returns never alias them.
func newSearch(cfg Config) (*search, *node) {
	s := &search{cfg: cfg.WithDefaults()}
	s.doc = s.cfg.open()
	if st, ok := s.doc.(checker.ScratchTryer); ok {
		s.st, s.sc = st, &kernel.Scratch{}
	}
	root := &node{state: s.doc.Root()}
	s.seen = seenPool.Get().(map[[2]uint64]bool)
	s.seen[root.state.FingerprintKey()] = true
	return s, root
}

// close closes the document and hands the cleared seen set back.
func (s *search) close() {
	s.doc.Close()
	clear(s.seen)
	seenPool.Put(s.seen)
	s.seen = nil
}

// query spends one model query on n and returns its candidates, truncated
// to Width, and n's path. With the query limit spent it sets Fuelout and
// returns ok false. The candidates may be the model's reused scratch:
// they are valid until the next query.
func (s *search) query(n *node) (cands []model.Candidate, path []string, ok bool) {
	if s.res.Queries >= s.cfg.QueryLimit {
		s.res.Status = Fuelout
		return nil, nil, false
	}
	s.res.Queries++
	s.res.Expanded++
	path = n.path()
	cands = s.cfg.Propose(n.state, path)
	if len(cands) > s.cfg.Width {
		cands = cands[:s.cfg.Width]
	}
	return cands, path, true
}

// child runs cand at n, whose path is path, and returns the new node, or
// nil when cand is invalid: rejected, timed out, or reaching a state
// already in the search, each counted in the Result. proved reports that
// the new node closes the proof; the Result then holds it. Each search
// calls child on a query's candidates in order, so the counters, the seen
// set and the early exit are the same whatever the backend.
func (s *search) child(n *node, path []string, cand model.Candidate) (c *node, proved bool) {
	var out checker.Step
	if s.st != nil {
		out = s.st.TryScratch(n.state, path, cand.Tactic, s.sc)
	} else {
		out = s.doc.Try(n.state, path, cand.Tactic)
	}
	switch out.Status {
	case checker.Rejected:
		s.res.InvalidRejected++
		return nil, false
	case checker.Timeout:
		s.res.InvalidTimeout++
		return nil, false
	}
	c = &node{state: out.State, parent: n, tac: cand.Tactic, cum: n.cum + cand.LogProb, depth: n.depth + 1}
	if out.Proved {
		s.res.Status, s.res.Proof = Proved, c.path()
		return c, true
	}
	fp := out.State.FingerprintKey()
	if s.seen[fp] {
		s.res.InvalidDuplicate++
		return nil, false
	}
	s.seen[fp] = true
	return c, false
}

// BestFirst runs the paper's search:
//
//	Selection: pop the unexpanded goal with the highest cumulative
//	log-probability. Expansion: query the model; append each valid
//	predicted tactic as a child.
func BestFirst(cfg Config) Result {
	s, root := newSearch(cfg)
	defer s.close()
	open := &nodeHeap{root}
	seq := 0
	for open.Len() > 0 {
		best := heap.Pop(open).(*node)
		cands, path, ok := s.query(best)
		if !ok {
			return s.res
		}
		for _, cand := range cands {
			c, proved := s.child(best, path, cand)
			if proved {
				return s.res
			}
			if c != nil {
				seq++
				c.seq = seq
				heap.Push(open, c)
			}
		}
	}
	s.res.Status = Stuck
	return s.res
}

// Linear runs the Rango-style trial-and-error linear search baseline: at
// each state take the first valid candidate in model order; on a dead end,
// backtrack to the most recent state with untried candidates.
func Linear(cfg Config) Result {
	s, root := newSearch(cfg)
	defer s.close()
	// A frame keeps the untried candidates of one node.
	type frame struct {
		n     *node
		path  []string
		cands []model.Candidate
	}
	var stack []frame
	push := func(n *node) bool {
		cands, path, ok := s.query(n)
		if ok {
			// The frame owns a copy: it outlives the model's proposal
			// scratch, which the next query overwrites.
			stack = append(stack, frame{n, path, slices.Clone(cands)})
		}
		return ok
	}
	if !push(root) {
		return s.res
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.cands) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		cand := top.cands[0]
		top.cands = top.cands[1:]
		c, proved := s.child(top.n, top.path, cand)
		if proved {
			return s.res
		}
		if c != nil && !push(c) {
			return s.res
		}
	}
	s.res.Status = Stuck
	return s.res
}

// Greedy is the no-backtracking ablation: always follow the single best
// valid candidate.
func Greedy(cfg Config) Result {
	s, cur := newSearch(cfg)
	defer s.close()
	for cur != nil {
		cands, path, ok := s.query(cur)
		if !ok {
			return s.res
		}
		var next *node
		for _, cand := range cands {
			c, proved := s.child(cur, path, cand)
			if proved {
				return s.res
			}
			if c != nil {
				next = c
				break
			}
		}
		cur = next
	}
	s.res.Status = Stuck
	return s.res
}
