package model

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
)

// Candidate is one proposed next tactic with its log-probability (the
// best-first search accumulates these along paths, as in GPT-f).
type Candidate struct {
	Tactic  string
	LogProb float64
}

// Model is a simulated LLM: a capability profile bound to an environment
// (used only to parse the lemma statements that are visible in the prompt).
// A Model is owned by one proof search at a time: its retrieval view and
// scratch space are per-search memos and are not safe for concurrent
// Propose calls on the same Model. Rebind readies it for the next search,
// so a grid worker reuses one Model across its searches.
//
// Propose names every candidate by an integer id, one per dedup key, from
// two spaces: a key the lemma table yields keeps the table's id (below
// nt), and any other key gets a local id, from nt up, the first time the
// Model sees it. A candidate reaches its id without a text: it is a tuple
// of a template and operand ids (see candID), and its text is rendered and
// normalized only the first time the Model meets the tuple. Dedup, the
// n-gram terms and the bigram bonus are then loads from id-indexed state,
// and a text is looked up only for the candidates Propose returns.
type Model struct {
	Profile Profile
	Env     *kernel.Env
	// lemmas is the lemma-statement analysis retrieval reads: the corpus
	// table shared by a sweep (NewWithLemmas, Rebind). view pairs the
	// visible lemmas with their prompt- and n-gram-dependent weights; it
	// lives until Rebind, so memory does not grow with the searches run.
	lemmas *LemmaTable
	view   retrView

	// The candidate vocabulary, numbered under idsOf (a rebind onto another
	// table renumbers it; see viewFor). tuples resolves a candidate tuple to
	// its key's id (-1 for an empty key, which is dropped); local resolves a
	// local key, and keys lists the local keys (id nt+i is keys[i]). textBuf
	// renders a tuple's text.
	idsOf   *LemmaTable
	nt      int32
	tuples  map[uint64]int32
	local   map[string]int32
	keys    []string
	textBuf []byte
	// The operands of a tuple other than table lemmas and junk indices, each
	// numbered for the Model's life: names (of hypotheses, variables,
	// binders and predicates) and stuck scrutinees (see nameID, scrutID).
	names     map[string]int32
	nameText  []string
	scruts    map[*kernel.Term]int32
	scrutText []string
	// Per-id state, one array per id space so that each grows with the ids
	// the Model's searches touch rather than with the table: tab is indexed
	// by table id, loc by local id - nt.
	tab, loc []idState
	qep      uint32 // query epoch: the stamps in idState that equal it are this query's
	// scoreGen versions the n-gram terms in idState; it moves when the
	// n-gram does.
	scoreNG  *NGram
	scoreGen uint32

	// The per-formula memo of this search (facts.go): factAt maps a formula
	// to its facts, whose variable-length parts are spans of factInts. The
	// fact* buffers are scratch for analyze.
	factAt                       map[*kernel.Form]int32
	facts                        []formFacts
	factInts, factSyms, factRecs []int32
	factScruts                   []*kernel.Term
	// This query's goal, resolved by resolveGoal: the facts of the
	// conclusion, and of each hypothesis with its name id.
	concl int32
	hyps  []hypRef

	// Propose scratch space, reused across the queries and searches. The
	// sweep spends most of its time in Propose, and per-query maps and
	// slices were the dominant allocation source.
	pool, uniq []scored
	// Per-query retrieval marks, indexed by table symbol id: a symbol is in
	// the goal (hypotheses) when goalMark (hypMark) holds the query's epoch,
	// and hypFirst is then the first hypothesis mentioning it. See
	// markSymbols.
	goalMark, hypMark []uint32
	hypFirst          []int32
	epoch             uint32
	// scoreBuf packs the softmax lanes (utilities | probabilities | Gumbel
	// keys) into one struct-of-arrays buffer: a single grow per slate size
	// instead of three, and the lanes stay on the same cache lines.
	scoreBuf []float64
	order    []int
	out      []Candidate
}

// hypRef is one hypothesis of the query's goal: its name id, the index of
// its formula's facts, and its lemma-table head (the facts' thead), which
// retrieval's forward chaining compares with every premise head.
type hypRef struct {
	name, facts int32
	head        head
}

// idState is what a Model tracks per candidate id. Stamps replace
// clearing: an entry's slate position is current only while seen equals
// the query epoch, its bigram bonus only while biEp does, and its n-gram
// terms only while gen equals the score generation.
type idState struct {
	seen uint32 // query epoch in which the id entered the slate...
	pos  int32  // ...at this index
	biEp uint32
	gen  uint32
	// The terms of NGram.Score, pre-scaled but kept apart so the sum adds
	// them in Score's order (floating-point addition does not reassociate):
	// the bonus for following the query's predecessor, then the unigram
	// and head-word terms, which depend on the key alone.
	bi, u12, h05 float64
}

// NewWithLemmas binds a profile to an environment and a lemma table, built
// by NewLemmaTable over env or over the environment env was restricted
// from. The table must hold every lemma the model's prompts show, under the
// statement env declares: Propose panics, naming the lemma, on one it
// lacks.
func NewWithLemmas(p Profile, env *kernel.Env, lt *LemmaTable) *Model {
	return &Model{Profile: p, Env: env, lemmas: lt}
}

// Rebind readies m, which may be the zero Model, for another search: m then
// proposes as NewWithLemmas(p, env, lt) would. It keeps the vocabulary,
// because a tuple's id is a function of the lemma table alone, and the
// per-id arrays and scratch, because the query epochs and n-gram
// generations stamped there make earlier entries unreadable without
// clearing. It drops the retrieval view, which depends on the prompt, the
// n-gram and the profile, and the per-formula memo, which depends on the
// environment and the table. A table other than the one the vocabulary is
// numbered under renumbers it on the next query.
func (m *Model) Rebind(p Profile, env *kernel.Env, lt *LemmaTable) {
	m.Profile, m.Env, m.lemmas = p, env, lt
	m.view.prompt = nil
	m.dropFacts()
}

// scored is an internal candidate with its utility components. It names
// its dedup key by id, so the scratch slices holding it carry no pointers
// and appending to them pays no GC write barrier.
type scored struct {
	h  float64 // goal-directed heuristic (scaled by HeuristicSkill)
	r  float64 // retrieval relevance (already skill-scaled)
	j  float64 // raw utility (noise candidates compete unscaled)
	id int32   // candidate id; -1 (an empty key) is dropped by fold
}

// Propose generates up to MaxOutputs tactic candidates for the focused goal
// of st. path is the proof-so-far (tactic sentences from the root), used by
// the n-gram component; ng may be nil (vanilla prompts have no proofs to
// mine). rng drives the sampling noise and must be owned by the caller for
// determinism.
//
// The returned slice is part of the model's reused scratch: it is valid
// only until the next Propose call on the same Model. Callers that retain
// candidates past that call (core.Linear's backtracking frames do) must
// copy them first.
func (m *Model) Propose(p *prompt.Prompt, st *tactic.State, path []string, ng *NGram, rng *rand.Rand) []Candidate {
	if st.Done() || len(st.Goals) == 0 {
		return nil
	}
	goal := st.Goals[0]
	prev := "<start>"
	if len(path) > 0 {
		prev = textmetrics.NormalizeScript(path[len(path)-1])
	}
	// Resolve the view before any id: it renumbers the vocabulary after a
	// rebind onto another lemma table, and junk draws lemmas from it.
	m.viewFor(p, ng)
	ep := m.nextEpoch()
	m.resolveGoal(goal)

	// The pool: the goal-shape candidates, then retrieval's.
	uniq := m.uniq[:0]
	m.pool = m.retrieval(m.structural(m.pool[:0], goal))
	for _, c := range m.pool {
		uniq = m.fold(uniq, ep, c)
	}
	// Fold the per-query candidates on top of the pool, in pool order: the
	// idiomatic continuations mined from hint proofs (prev-dependent,
	// including two-step "a; b" compounds) and the capability noise
	// (corrupted names and junk tactics competing with real candidates).
	nx := ng.nextOf(prev)
	var mined []int32
	if nx != nil {
		mined = m.minedIDs(nx)
		for _, id := range mined[:len(nx.conts)] {
			uniq = m.fold(uniq, ep, scored{id: id, h: 0.9})
		}
		for i, pair := range nx.pairs {
			uniq = m.fold(uniq, ep, scored{id: mined[len(nx.conts)+i], h: 1.1 + 0.25*math.Log1p(pair.Count)})
		}
	}
	m.pool = m.junk(m.pool[:0], rng)
	for _, c := range m.pool {
		uniq = m.fold(uniq, ep, c)
	}
	m.uniq = uniq
	if len(uniq) == 0 {
		return nil
	}

	// Utilities -> temperature softmax. The MaxOutputs completions are
	// sampled WITH replacement, like a real LLM's k independent samples:
	// a confident model emits duplicates, shrinking the effective search
	// width — the reason the paper sees far more "stuck" than "fuelout".
	prof := m.Profile
	n := len(uniq)
	lanes := resize(&m.scoreBuf, 3*n)
	utils := lanes[:n:n]
	maxU := math.Inf(-1)
	scoreable := ng != nil && ng.total != 0
	if scoreable {
		m.stampBigrams(ng, nx, mined, ep)
	}
	for i, c := range uniq {
		// Open-coded ng.Score(prev, key): the key is already
		// whitespace-normalized, so Score's NormalizeScript would be the
		// identity; the key-local terms come from the id's state and the
		// bigram row was stamped above. The terms are summed in Score's
		// order so the result is bit-identical.
		g := 0.0
		if scoreable {
			s := m.state(c.id)
			if s.gen != m.scoreGen {
				m.scoreTerms(s, c.id, ng)
			}
			if s.biEp == ep {
				g = s.bi
			}
			g += s.u12
			g += s.h05
			if g > 2.0 {
				g = 2.0
			}
		}
		u := 2.2*c.h*prof.HeuristicSkill + c.r + g*prof.HintBoost + c.j
		utils[i] = u
		if u > maxU {
			maxU = u
		}
	}
	temp := prof.Temperature
	if temp <= 0 {
		temp = 0.01
	}
	// Gumbel-top-k selects MaxOutputs distinct candidates proportionally;
	// confidence pruning then drops candidates far below the mode — a
	// confident model's k samples concentrate and return fewer distinct
	// tactics (why the paper sees more "stuck" than "fuelout").
	order := gumbelTopK(resizeInt(&m.order, n)[:0], lanes, maxU, temp, min(prof.MaxOutputs, n), rng)
	probs := lanes[n : 2*n : 2*n]
	pMax := 0.0
	for _, idx := range order {
		if probs[idx] > pMax {
			pMax = probs[idx]
		}
	}
	// Confidence pruning with a floor: k temperature samples from a real
	// model concentrate when the distribution is peaked, but essentially
	// never return fewer than a few distinct completions.
	const confidencePrune = 0.12
	const minSlate = 3
	out := m.out[:0]
	for rank, idx := range order {
		if rank >= minSlate && probs[idx] < confidencePrune*pMax {
			continue
		}
		out = append(out, Candidate{Tactic: m.keyText(uniq[idx].id), LogProb: math.Log(probs[idx])})
	}
	slices.SortStableFunc(out, func(a, b Candidate) int { return cmp.Compare(b.LogProb, a.LogProb) })
	m.out = out
	return out
}

// ---------------------------------------------------------------------------
// Candidate ids

// resetIDs numbers the vocabulary afresh under the current lemma table.
func (m *Model) resetIDs() {
	m.idsOf = m.lemmas
	m.nt = int32(len(m.lemmas.keys))
	m.tuples = map[uint64]int32{}
	m.local = map[string]int32{}
	m.keys = m.keys[:0]
	m.tab = m.tab[:0]
	m.loc = m.loc[:0]
}

// growTab extends the table-id state to cover id.
func (m *Model) growTab(id int32) {
	if n := int(id) + 1; n > len(m.tab) {
		m.tab = append(m.tab, make([]idState, n-len(m.tab))...)
	}
}

// tmpl is a candidate template: the shape of a text, with up to two
// operands. A candidate is the tuple (template, a, b).
type tmpl uint8

// The templates. The zero tmpl is none.
const (
	_ tmpl = iota
	tIntros
	tIntro
	tSplit
	tLeft
	tRight
	tConstructor
	tEconstructor
	tContradiction
	tReflexivity
	tSimpl
	tSymmetry
	tCongruence
	tFEqual
	tExists0
	tExistsNil
	tOmega
	tAuto
	tEauto
	tAssumption
	tSubst
	tExists       // a: name
	tUnfold       // a: name
	tDestruct     // a: name
	tInversion    // a: name
	tInduction    // a: name
	tRewrite      // a: name
	tRewriteRev   // a: name
	tRewriteAll   // a: name
	tDiscriminate // a: name
	tSimplIn      // a: name
	tApply        // a: name
	tEapply       // a: name
	tUnfoldIn     // a, b: names
	tRewriteIn    // a, b: names
	tDestructEqn  // a: stuck scrutinee
	tLemRewriteIn // a: table lemma, b: name
	tLemApplyIn   // a: table lemma, b: name
	tJunk         // a: index into junkTactics
	tJunkHyp      // a: index into junkHypApply
	numTemplates
)

// operand is what a template operand's id numbers.
type operand uint8

const (
	opNone operand = iota
	opName
	opScrut
	opLemma
	opJunk
	opJunkHyp
)

// templates renders a tuple (t, a, b) as pre, a's text, mid, b's text,
// post.
var templates = [numTemplates]struct {
	pre, mid, post string
	a, b           operand
}{
	tIntros:        {pre: "intros."},
	tIntro:         {pre: "intro."},
	tSplit:         {pre: "split."},
	tLeft:          {pre: "left."},
	tRight:         {pre: "right."},
	tConstructor:   {pre: "constructor."},
	tEconstructor:  {pre: "econstructor."},
	tContradiction: {pre: "contradiction."},
	tReflexivity:   {pre: "reflexivity."},
	tSimpl:         {pre: "simpl."},
	tSymmetry:      {pre: "symmetry."},
	tCongruence:    {pre: "congruence."},
	tFEqual:        {pre: "f_equal."},
	tExists0:       {pre: "exists 0."},
	tExistsNil:     {pre: "exists nil."},
	tOmega:         {pre: "omega."},
	tAuto:          {pre: "auto."},
	tEauto:         {pre: "eauto."},
	tAssumption:    {pre: "assumption."},
	tSubst:         {pre: "subst."},
	tExists:        {pre: "exists ", post: ".", a: opName},
	tUnfold:        {pre: "unfold ", post: ".", a: opName},
	tDestruct:      {pre: "destruct ", post: ".", a: opName},
	tInversion:     {pre: "inversion ", post: ".", a: opName},
	tInduction:     {pre: "induction ", post: ".", a: opName},
	tRewrite:       {pre: "rewrite ", post: ".", a: opName},
	tRewriteRev:    {pre: "rewrite <- ", post: ".", a: opName},
	tRewriteAll:    {pre: "rewrite ", post: " in *.", a: opName},
	tDiscriminate:  {pre: "discriminate ", post: ".", a: opName},
	tSimplIn:       {pre: "simpl in ", post: ".", a: opName},
	tApply:         {pre: "apply ", post: ".", a: opName},
	tEapply:        {pre: "eapply ", post: ".", a: opName},
	tUnfoldIn:      {pre: "unfold ", mid: " in ", post: ".", a: opName, b: opName},
	tRewriteIn:     {pre: "rewrite ", mid: " in ", post: ".", a: opName, b: opName},
	tDestructEqn:   {pre: "destruct (", post: ") eqn:He.", a: opScrut},
	tLemRewriteIn:  {pre: "rewrite ", mid: " in ", post: ".", a: opLemma, b: opName},
	tLemApplyIn:    {pre: "apply ", mid: " in ", post: ".", a: opLemma, b: opName},
	tJunk:          {a: opJunk},
	tJunkHyp:       {a: opJunkHyp},
}

// candID resolves the candidate (t, a, b) to the id of its dedup key. The
// operands are below 1<<28, so the tuple packs into one integer key.
func (m *Model) candID(t tmpl, a, b int32) int32 {
	k := uint64(t)<<56 | uint64(a)<<28 | uint64(b)
	if id, ok := m.tuples[k]; ok {
		return id
	}
	id := m.addText(string(m.render(t, a, b)))
	m.tuples[k] = id
	return id
}

// render writes the text of (t, a, b) into textBuf.
func (m *Model) render(t tmpl, a, b int32) []byte {
	tp := &templates[t]
	buf := append(m.textBuf[:0], tp.pre...)
	if tp.a != opNone {
		buf = append(buf, m.operandText(tp.a, a)...)
		buf = append(buf, tp.mid...)
	}
	if tp.b != opNone {
		buf = append(buf, m.operandText(tp.b, b)...)
	}
	buf = append(buf, tp.post...)
	m.textBuf = buf
	return buf
}

func (m *Model) operandText(op operand, x int32) string {
	switch op {
	case opName:
		return m.nameText[x]
	case opScrut:
		return m.scrutText[x]
	case opLemma:
		return m.idsOf.lems[x].name
	case opJunk:
		return junkTactics[x]
	default:
		return junkHypApply[x]
	}
}

// addText numbers the dedup key of a text, as a local key if the table
// lacks it, and returns its id (-1 for an empty key).
func (m *Model) addText(text string) int32 {
	key := dedupKey(text)
	if key == "" {
		return -1
	}
	id := m.keyID(key)
	switch {
	case id < 0:
		id = m.nt + int32(len(m.keys))
		m.keys = append(m.keys, key)
		m.local[key] = id
		m.loc = append(m.loc, idState{})
	case id < m.nt:
		m.growTab(id)
	}
	return id
}

// minedIDs returns the ids of nx's continuations, then of its pairs, then
// of its successors, which stampBigrams resolves (-1 until a candidate has
// the key). The n-gram is the view's, so they are resolved once per search.
func (m *Model) minedIDs(nx *nextSteps) []int32 {
	n := len(nx.conts) + len(nx.pairs) + len(nx.succ)
	if off, ok := m.view.minedAt[nx]; ok {
		return m.view.mined[off : off+n]
	}
	if m.view.minedAt == nil {
		m.view.minedAt = map[*nextSteps]int{}
	}
	off := len(m.view.mined)
	for _, c := range nx.conts {
		m.view.mined = append(m.view.mined, m.addText(c))
	}
	for _, p := range nx.pairs {
		m.view.mined = append(m.view.mined, m.addText(p.Text))
	}
	for range nx.succ {
		m.view.mined = append(m.view.mined, -1)
	}
	m.view.minedAt[nx] = off
	return m.view.mined[off : off+n]
}

// keyID returns the id of a dedup key, or -1 if no candidate has had it.
func (m *Model) keyID(key string) int32 {
	if id, ok := m.idsOf.keyID[key]; ok {
		return id
	}
	if id, ok := m.local[key]; ok {
		return id
	}
	return -1
}

// keyText returns the dedup key an id names.
func (m *Model) keyText(id int32) string {
	if id < m.nt {
		return m.idsOf.keys[id]
	}
	return m.keys[id-m.nt]
}

// state returns the per-id state of an id idOf or the view handed out.
func (m *Model) state(id int32) *idState {
	if id < m.nt {
		return &m.tab[id]
	}
	return &m.loc[id-m.nt]
}

// nextEpoch starts a query: stamps from earlier queries stop matching.
func (m *Model) nextEpoch() uint32 {
	m.qep++
	if m.qep == 0 {
		clear(m.tab)
		clear(m.loc)
		m.qep = 1
	}
	return m.qep
}

// fold merges one candidate into the deduplicated slate, keeping the best
// score per component for a repeated key. An id is in the slate when its
// state was stamped with this query's epoch ep, at index pos.
func (m *Model) fold(uniq []scored, ep uint32, c scored) []scored {
	if c.id < 0 {
		return uniq
	}
	s := m.state(c.id)
	if s.seen == ep {
		u := &uniq[s.pos]
		if c.h > u.h {
			u.h = c.h
		}
		if c.r > u.r {
			u.r = c.r
		}
		if c.j > u.j {
			u.j = c.j
		}
		return uniq
	}
	s.seen, s.pos = ep, int32(len(uniq))
	return append(uniq, c)
}

// stampBigrams brings the n-gram terms to ng's generation and stamps, for
// query ep, the bigram bonus of every mined successor of the predecessor
// (nx's, with minedIDs' ids in mined) that is a candidate key: one pass
// over a short row instead of a row lookup per candidate.
func (m *Model) stampBigrams(ng *NGram, nx *nextSteps, mined []int32, ep uint32) {
	if m.scoreNG != ng {
		m.scoreNG = ng
		m.scoreGen++
		if m.scoreGen == 0 {
			clear(m.tab)
			clear(m.loc)
			m.scoreGen = 1
		}
	}
	if nx == nil {
		return
	}
	ids := mined[len(nx.conts)+len(nx.pairs):]
	for i, next := range nx.succ {
		id := ids[i]
		if id < 0 {
			if id = m.keyID(next.text); id < 0 {
				continue // no candidate has this key
			}
			ids[i] = id
		}
		if id < m.nt && int(id) >= len(m.tab) {
			continue // nor this table key
		}
		s := m.state(id)
		s.biEp, s.bi = ep, next.bonus
	}
}

// scoreTerms computes the key-local terms of NGram.Score for id.
func (m *Model) scoreTerms(s *idState, id int32, ng *NGram) {
	key := m.keyText(id)
	// Log1p(0) is exactly 0, so the zero-count fast paths are bit-identical;
	// most candidates miss the n-gram tables.
	s.u12, s.h05 = 0, 0
	if n := ng.uni[key]; n != 0 {
		s.u12 = 0.12 * math.Log1p(n)
	}
	if n := ng.headUN[headOf(key)]; n != 0 {
		s.h05 = 0.05 * math.Log1p(n)
	}
	s.gen = m.scoreGen
}

// ---------------------------------------------------------------------------
// Lazy Gumbel top-k
//
// A candidate's Gumbel key is Log(p) + G(u), with G(u) = -Log(-Log(u)) for
// a uniform u; the k largest keys sample k distinct candidates in
// proportion to p. Only they matter, and once k candidates are held most
// keys cannot beat the k-th, so gumbelTopK computes a key only when a
// certified upper bound exceeds it:
//
//	Log(p) <= max(a - Log(z), Log(2^-1022)) up to rounding, where p = e^a/z
//	         (a subnormal or zero p is below the smallest normal),
//	G(u)   <= gumbelCeil[bucket of u] up to rounding (G rises with u),
//
// and gumbelMargin covers the rounding, which is below 1e-12 for keys of
// magnitude below 800. The last bucket reaches u = 1, where G is
// unbounded, so its ceiling is +Inf and it is never skipped. Insertion
// needs a key strictly above the k-th, so a skipped candidate could never
// have entered: the selection, and every float reaching the output, is
// bit-identical to computing every key.

const (
	// gumbelBuckets is a power of two, so u*gumbelBuckets is exact and
	// the bucket index is floor(u*gumbelBuckets) with no rounding.
	gumbelBuckets = 1 << 10
	gumbelMargin  = 1e-9
)

var (
	// gumbelCeil[b] is G at the upper edge of bucket b, (b+1)/gumbelBuckets.
	gumbelCeil = func() (t [gumbelBuckets]float64) {
		for b := range t[:gumbelBuckets-1] {
			t[b] = -math.Log(-math.Log(float64(b+1) / gumbelBuckets))
		}
		t[gumbelBuckets-1] = math.Inf(1)
		return t
	}()
	logMinNormal = math.Log(0x1p-1022)
)

// gumbelTopK samples the slate from the utilities in the first third of
// lanes (maxU is their maximum): it appends to order the indices of the k
// largest Gumbel keys, largest first, ties in index order — a stable sort
// by key, descending, cut to k. The second third of lanes receives the
// softmax probabilities, normalized for every candidate whose key is
// computed (all of order's), and the last third the keys, each holding the
// candidate's softmax exponent until its key replaces it. One uniform is
// drawn per candidate (zeros redrawn), key or not, so the RNG stream does
// not depend on the bound.
func gumbelTopK(order []int, lanes []float64, maxU, temp float64, k int, rng *rand.Rand) []int {
	n := len(lanes) / 3
	utils, probs, keys := lanes[:n:n], lanes[n:2*n:2*n], lanes[2*n:]
	// A slate repeats utilities in runs (a quarter of a sweep's candidates
	// equal their predecessor's), and an equal exponent has an equal Exp.
	var z, lastA, lastE float64
	lastA = math.NaN()
	for i, u := range utils {
		a := (u - maxU) / temp
		keys[i] = a
		if a != lastA {
			lastA, lastE = a, math.Exp(a)
		}
		probs[i] = lastE
		z += lastE
	}
	logZ := math.Log(z)
	for i := range keys {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		held := len(order)
		if held == k {
			if k == 0 {
				continue
			}
			lp := keys[i] - logZ
			if lp < logMinNormal {
				lp = logMinNormal
			}
			if lp+gumbelCeil[int(u*gumbelBuckets)]+gumbelMargin <= keys[order[k-1]] {
				continue
			}
		}
		p := probs[i] / z
		probs[i] = p
		keys[i] = math.Log(p) + -math.Log(-math.Log(u))
		// Stable top-k insertion: an insertion never beats an equal key, so
		// later indices stay after earlier ones, exactly the stable-sort
		// order.
		if held < k {
			order = append(order, i)
			held++
		} else if keys[i] > keys[order[k-1]] {
			order[k-1] = i
		} else {
			continue
		}
		for j := held - 1; j > 0 && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// resize returns *buf with length n, growing the backing array only when
// needed.
func resize(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func resizeInt(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ---------------------------------------------------------------------------
// Goal-directed enumeration

// structural appends the goal-shape candidate pool in order, each with its
// heuristic h: a pure function of (goal, env). It reads the goal's facts
// and hypothesis names that resolveGoal looked up for this query.
func (m *Model) structural(out []scored, g *tactic.Goal) []scored {
	add := func(h float64, t tmpl, a, b int32) {
		out = append(out, scored{id: m.candID(t, a, b), h: h})
	}
	c := g.Concl
	cf := &m.facts[m.concl]

	switch c.Kind {
	case kernel.FForall, kernel.FImpl:
		add(2.6, tIntros, 0, 0)
	case kernel.FNot:
		add(2.2, tIntro, 0, 0)
	case kernel.FAnd:
		add(2.5, tSplit, 0, 0)
	case kernel.FIff:
		add(2.2, tSplit, 0, 0)
	case kernel.FOr:
		add(1.1, tLeft, 0, 0)
		add(1.0, tRight, 0, 0)
	case kernel.FTrue:
		add(3.0, tConstructor, 0, 0)
	case kernel.FFalse:
		add(1.4, tContradiction, 0, 0)
	case kernel.FEq:
		add(2.1, tReflexivity, 0, 0)
		add(1.4, tSimpl, 0, 0)
		add(0.2, tSymmetry, 0, 0)
		add(0.6, tCongruence, 0, 0)
		if cf.has(fEqSameFun) {
			add(1.0, tFEqual, 0, 0)
		}
	case kernel.FExists:
		for _, v := range g.Vars {
			if c.BType == nil || v.Type == nil || v.Type.Name == c.BType.Name {
				add(1.5, tExists, m.nameID(v.Name), 0)
			}
		}
		add(0.6, tExists0, 0, 0)
		add(0.5, tExistsNil, 0, 0)
	case kernel.FPred:
		if cf.has(fInd) {
			add(1.7, tConstructor, 0, 0)
			add(1.0, tEconstructor, 0, 0)
		}
		if cf.has(fDef) {
			add(1.8, tUnfold, cf.pred, 0)
		}
	}

	arithHyps := false
	for _, h := range m.hyps {
		if m.facts[h.facts].has(fArith) {
			arithHyps = true
			break
		}
	}
	switch {
	case cf.has(fArith) && arithHyps:
		add(1.9, tOmega, 0, 0)
	case cf.has(fArith):
		add(1.3, tOmega, 0, 0)
	case arithHyps && (c.Kind == kernel.FEq || c.Kind == kernel.FFalse || c.Kind == kernel.FNot || c.Kind == kernel.FPred):
		add(1.4, tOmega, 0, 0)
	}
	add(1.2, tAuto, 0, 0)
	add(0.9, tEauto, 0, 0)

	// Hypothesis-directed moves.
	substUseful := false
	for i, h := range g.Hyps {
		hf, n := &m.facts[m.hyps[i].facts], m.hyps[i].name
		switch h.Form.Kind {
		case kernel.FFalse:
			add(3.0, tContradiction, 0, 0)
		case kernel.FAnd, kernel.FExists, kernel.FOr:
			add(1.6, tDestruct, n, 0)
			add(0.6, tInversion, n, 0)
		case kernel.FIff:
			add(1.2, tDestruct, n, 0)
		case kernel.FEq:
			if hf.has(fEqVar) {
				substUseful = true
			}
			add(1.1, tRewrite, n, 0)
			add(0.5, tRewriteRev, n, 0)
			add(0.1, tRewriteAll, n, 0) // unsupported form: realistic junk
			if hf.has(fEqCtorsDiff) {
				add(2.6, tDiscriminate, n, 0)
			} else if hf.has(fEqCtorsSame) {
				add(1.6, tInversion, n, 0)
			}
			add(0.5, tSimplIn, n, 0)
		case kernel.FPred:
			if hf.has(fInd) {
				w := 1.0
				if hf.has(fCtorArg) {
					w = 1.8
				}
				add(w, tInversion, n, 0)
				add(0.8, tInduction, n, 0)
			}
			if hf.has(fDef) {
				add(1.4, tUnfoldIn, hf.pred, n)
			}
			add(0.4, tSimplIn, n, 0)
		case kernel.FForall, kernel.FImpl:
			if hf.chead == cf.ghead {
				add(1.9, tApply, n, 0)
				add(1.1, tEapply, n, 0)
			} else {
				add(0.5, tApply, n, 0)
			}
			// Quantified equations (induction hypotheses above all) are
			// rewriting material.
			if hf.chead == headEq {
				w := 1.4
				if strings.HasPrefix(h.Name, "IH") {
					w = 2.1
				}
				add(w, tRewrite, n, 0)
				add(0.4*w, tRewriteRev, n, 0)
			}
		case kernel.FNot:
			if c.Kind == kernel.FFalse {
				add(2.0, tApply, n, 0)
			}
		}
		// A hypothesis alpha-equivalent to the conclusion. The fingerprint
		// of a formula starts with its kind, so only a hypothesis of the
		// conclusion's kind needs the keys compared.
		if h.Form == c || h.Form.Kind == c.Kind && m.fpkOf(m.hyps[i].facts, h.Form) == m.fpkOf(m.concl, c) {
			add(3.2, tAssumption, 0, 0)
		}
	}
	if substUseful {
		add(1.9, tSubst, 0, 0)
	}

	// Variable-directed induction/destruct. A variable scrutinized by a
	// recursive function in the goal is the prime induction candidate.
	recArgs := m.ints(cf.recs)
	for _, v := range g.Vars {
		if v.Type == nil || v.Type.TVar {
			continue
		}
		if _, isData := m.Env.Datatypes[v.Type.Name]; !isData {
			continue
		}
		n := m.nameID(v.Name)
		switch {
		case slices.Contains(recArgs, n):
			add(2.2, tInduction, n, 0)
			add(1.0, tDestruct, n, 0)
		case c.HasFreeVar(v.Name):
			add(1.1, tInduction, n, 0)
			add(0.9, tDestruct, n, 0)
		default:
			add(0.1, tDestruct, n, 0)
		}
	}
	// Induction on a not-yet-introduced leading binder (skipping type
	// binders, which are not inductive).
	for _, b := range m.ints(cf.binders) {
		w := 1.0
		if slices.Contains(recArgs, b) {
			w = 2.0
		}
		add(w, tInduction, b, 0)
	}

	// simpl when computation is visible.
	if cf.has(fComputes) {
		add(1.3, tSimpl, 0, 0)
	}

	// Stuck matches invite case analysis on the scrutinee (the
	// `destruct (eqb a n) eqn:He` idiom): up to two in the goal, the first
	// in each hypothesis.
	for _, s := range m.ints(cf.scruts) {
		add(2.0, tDestructEqn, s, 0)
	}
	for _, h := range m.hyps {
		if s := m.ints(m.facts[h.facts].scruts); len(s) > 0 {
			add(1.3, tDestructEqn, s[0], 0)
		}
	}

	// Targeted rewriting: an equation hypothesis whose left-hand side
	// occurs in another hypothesis or in the goal.
	for i, e := range g.Hyps {
		if e.Form.Kind != kernel.FEq || !m.facts[m.hyps[i].facts].has(fEqAppLHS) {
			continue
		}
		en, lhs := m.hyps[i].name, e.Form.T1
		if formContainsTerm(c, lhs) {
			add(2.0, tRewrite, en, 0)
		}
		for j, h := range g.Hyps {
			if m.hyps[j].name == en {
				continue
			}
			if formContainsTerm(h.Form, lhs) {
				add(1.8, tRewriteIn, en, m.hyps[j].name)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Noise

// junkTactics are sentences a weak model emits that the checker rejects,
// all but two: "trivial." is auto at depth 1, and "simpl in *." is a form
// simpl implements. Both stay, because removing an entry shifts every later
// rng.Intn draw of a sweep, and so changes every table.
// TestTacticTableMatchesCallers pins which are real tactics.
var junkTactics = []string{
	"ring.", "field.", "firstorder.", "tauto.", "cbv.", "trivial.",
	"intuition.", "easy.", "now auto.", "simpl in *.",
}

// junkHypApply pre-renders the "apply H<d>." junk family.
var junkHypApply = func() [9]string {
	var t [9]string
	for i := range t {
		t[i] = fmt.Sprintf("apply H%d.", i)
	}
	return t
}()

// junk appends the capability noise. It draws lemmas from the view, so
// Propose calls it after viewFor; a drawn lemma's "apply L." and
// "rewrite L." are the view's table ids.
func (m *Model) junk(out []scored, rng *rand.Rand) []scored {
	prof := m.Profile
	nJunk := int(math.Round(prof.NoiseRate * 10))
	level := 3.4 * prof.NoiseRate
	for i := 0; i < nJunk; i++ {
		u := (0.4 + rng.Float64()) * level
		switch rng.Intn(4) {
		case 0:
			out = append(out, scored{id: m.candID(tJunk, int32(rng.Intn(len(junkTactics))), 0), j: u})
		case 1:
			// Apply a random visible lemma regardless of relevance.
			if lem := m.randomLemma(rng); lem != nil {
				out = append(out, scored{id: lem.apply, j: u})
			}
		case 2:
			if lem := m.randomLemma(rng); lem != nil {
				out = append(out, scored{id: lem.rewrite, j: u})
			}
		default:
			// Reference a plausible but possibly absent hypothesis.
			out = append(out, scored{id: m.candID(tJunkHyp, int32(rng.Intn(9)), 0), j: u})
		}
	}
	return out
}

// randomLemma draws a visible lemma, or nil when the prompt shows none.
// The view lists the prompt's lemma items in prompt order.
func (m *Model) randomLemma(rng *rand.Rand) *lemView {
	lems := m.view.lems
	if len(lems) == 0 {
		return nil
	}
	return &lems[rng.Intn(len(lems))]
}
