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
// Model sees it. Dedup, the n-gram terms and the bigram bonus are then
// loads from id-indexed state, and a text is looked up only for the
// candidates Propose returns.
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
	// table renumbers it; see viewFor). vocab resolves a candidate text to
	// its key's id (-1 for an empty key, which is dropped); local resolves a
	// local key, and keys lists the local keys (id nt+i is keys[i]).
	// textBuf renders a candidate text for a vocab lookup that allocates
	// nothing (idOfIn).
	idsOf   *LemmaTable
	nt      int32
	vocab   map[string]int32
	local   map[string]int32
	keys    []string
	textBuf []byte
	// Per-id state, one array per id space so that each grows with the ids
	// the Model's searches touch rather than with the table: tab is indexed
	// by table id, loc by local id - nt.
	tab, loc []idState
	qep      uint32 // query epoch: the stamps in idState that equal it are this query's
	// scoreGen versions the n-gram terms in idState; it moves when the
	// n-gram does.
	scoreNG  *NGram
	scoreGen uint32

	// Propose scratch space, reused across the queries and searches. The
	// sweep spends most of its time in Propose, and per-query maps and
	// slices were the dominant allocation source.
	texts      []textCand
	pool, uniq []scored
	// Per-query retrieval marks, indexed by table symbol id: a symbol is in
	// the goal (hypotheses) when goalMark (hypMark) holds the query's epoch,
	// and hypFirst is then the first hypothesis mentioning it. hypHeads are
	// the hypotheses' heads. See markSymbols.
	goalMark, hypMark []uint32
	hypFirst          []int32
	epoch             uint32
	hypHeads          []head
	// scoreBuf packs the softmax lanes (utilities | probabilities | Gumbel
	// keys) into one struct-of-arrays buffer: a single grow per slate size
	// instead of three, and the lanes stay on the same cache lines.
	scoreBuf []float64
	order    []int
	out      []Candidate
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
// because a text's id is a function of the lemma table alone, and the
// per-id arrays and scratch, because the query epochs and n-gram
// generations stamped there make earlier entries unreadable without
// clearing. It drops the retrieval view, which depends on the prompt, the
// n-gram and the profile. A table other than the one the vocabulary is
// numbered under renumbers it on the next query.
func (m *Model) Rebind(p Profile, env *kernel.Env, lt *LemmaTable) {
	m.Profile, m.Env, m.lemmas = p, env, lt
	m.view.prompt = nil
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

// textCand is a junk candidate still named by its text, with its raw
// utility j.
type textCand struct {
	text string
	j    float64
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

	// The pool: the goal-shape candidates, then retrieval's.
	uniq := m.uniq[:0]
	m.structural(goal, func(text []byte, h float64) {
		uniq = m.fold(uniq, ep, scored{id: m.idOfBuf(text), h: h})
	})
	m.pool = m.retrieval(m.pool[:0], p, goal, ng)
	for _, c := range m.pool {
		uniq = m.fold(uniq, ep, c)
	}
	// Fold the per-query candidates on top of the pool, in pool order: the
	// idiomatic continuations mined from hint proofs (prev-dependent,
	// including two-step "a; b" compounds) and the capability noise
	// (corrupted names and junk tactics competing with real candidates).
	if nx := ng.nextOf(prev); nx != nil {
		for _, cont := range nx.conts {
			uniq = m.fold(uniq, ep, scored{id: m.idOf(cont), h: 0.9})
		}
		for _, pair := range nx.pairs {
			uniq = m.fold(uniq, ep, scored{id: m.idOf(pair.Text), h: 1.1 + 0.25*math.Log1p(pair.Count)})
		}
	}
	m.texts = m.junk(m.texts[:0], rng)
	for _, c := range m.texts {
		uniq = m.fold(uniq, ep, scored{id: m.idOf(c.text), j: c.j})
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
		m.stampBigrams(ng, prev, ep)
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
	m.vocab = map[string]int32{}
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

// idOf resolves a candidate text to the id of its dedup key, numbering a
// new local key. The memo is per text: normalization is a pure string
// function and candidate texts repeat heavily across the queries of a
// search.
func (m *Model) idOf(text string) int32 {
	if id, ok := m.vocab[text]; ok {
		return id
	}
	return m.addText(text)
}

// idOfIn is idOf for "<verb> <lemma> in <hyp>.", retrieval's candidates
// that target a hypothesis. It renders the text into textBuf (see idOfBuf).
func (m *Model) idOfIn(verb, lemma, hyp string) int32 {
	b := append(m.textBuf[:0], verb...)
	b = append(b, ' ')
	b = append(b, lemma...)
	b = append(b, " in "...)
	b = append(b, hyp...)
	b = append(b, '.')
	return m.idOfBuf(b)
}

// idOfBuf is idOf for a text rendered in b, which becomes textBuf. Go
// looks up vocab[string(b)] without allocating, so only a text the
// vocabulary lacks becomes a string.
func (m *Model) idOfBuf(b []byte) int32 {
	m.textBuf = b
	if id, ok := m.vocab[string(b)]; ok {
		return id
	}
	return m.addText(string(b))
}

// addText numbers a text the vocabulary lacks.
func (m *Model) addText(text string) int32 {
	id := int32(-1)
	if key := dedupKey(text); key != "" {
		id = m.keyID(key)
		switch {
		case id < 0:
			id = m.nt + int32(len(m.keys))
			m.keys = append(m.keys, key)
			m.local[key] = id
			m.loc = append(m.loc, idState{})
		case id < m.nt:
			m.growTab(id)
		}
	}
	m.vocab[text] = id
	return id
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
// query ep, the bigram bonus of every mined successor of prev that is a
// candidate key: one pass over a short row instead of a row lookup per
// candidate.
func (m *Model) stampBigrams(ng *NGram, prev string, ep uint32) {
	if m.scoreNG != ng {
		m.scoreNG = ng
		m.scoreGen++
		if m.scoreGen == 0 {
			clear(m.tab)
			clear(m.loc)
			m.scoreGen = 1
		}
	}
	for next, n := range ng.bi[prev] {
		id := m.keyID(next)
		if id < 0 || (id < m.nt && int(id) >= len(m.tab)) {
			continue // no candidate has this key
		}
		s := m.state(id)
		s.biEp, s.bi = ep, 0.6*math.Log1p(n)
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
	var z float64
	for i, u := range utils {
		a := (u - maxU) / temp
		keys[i] = a
		probs[i] = math.Exp(a)
		z += probs[i]
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

// forEachSymbol calls fn for every applied function, predicate, and
// constructor name in f, in a deterministic walk order, repeats included.
func forEachSymbol(f *kernel.Form, fn func(string)) {
	if f == nil {
		return
	}
	term := func(t *kernel.Term) {
		if t == nil {
			return
		}
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsApp() && u.Fun != "" {
				fn(u.Fun)
			}
			return true
		})
	}
	switch f.Kind {
	case kernel.FEq:
		term(f.T1)
		term(f.T2)
	case kernel.FPred:
		fn(f.Pred)
		for _, a := range f.Args {
			term(a)
		}
	case kernel.FNot:
		forEachSymbol(f.L, fn)
	case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
		forEachSymbol(f.L, fn)
		forEachSymbol(f.R, fn)
	case kernel.FForall, kernel.FExists:
		forEachSymbol(f.Body, fn)
	}
}

// orderedSymbols returns the unique applied symbols of f in first-encounter
// order. The lemma table stores symbol lists (a map range would sum the
// overlap score in randomized order), so the walk order here is the
// iteration order of the scoring loop.
func orderedSymbols(f *kernel.Form) []string {
	seen := map[string]bool{}
	var out []string
	forEachSymbol(f, func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	})
	return out
}

func conclHead(f *kernel.Form) string {
	for f != nil {
		switch f.Kind {
		case kernel.FForall, kernel.FExists:
			f = f.Body
		case kernel.FImpl:
			f = f.R
		case kernel.FNot:
			return "~"
		case kernel.FPred:
			return "P:" + f.Pred
		case kernel.FEq:
			return "="
		case kernel.FAnd:
			return "&"
		case kernel.FOr:
			return "|"
		case kernel.FIff:
			return "<>"
		case kernel.FTrue:
			return "T"
		case kernel.FFalse:
			return "F"
		default:
			return "?"
		}
	}
	return "?"
}

func goalHead(f *kernel.Form) string {
	switch f.Kind {
	case kernel.FPred:
		return "P:" + f.Pred
	case kernel.FEq:
		return "="
	case kernel.FAnd:
		return "&"
	case kernel.FOr:
		return "|"
	case kernel.FIff:
		return "<>"
	case kernel.FNot:
		return "~"
	case kernel.FTrue:
		return "T"
	case kernel.FFalse:
		return "F"
	case kernel.FForall:
		return "A"
	case kernel.FExists:
		return "E"
	case kernel.FImpl:
		return ">"
	default:
		return "?"
	}
}

// looksArith reports whether a formula is plausibly linear arithmetic.
func looksArith(f *kernel.Form) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case kernel.FPred:
		return f.Pred == "le" || f.Pred == "lt"
	case kernel.FEq:
		arith := false
		check := func(t *kernel.Term) {
			t.Subterms(func(u *kernel.Term) bool {
				if u.IsApp() && (u.Fun == "plus" || u.Fun == "minus" || u.Fun == "S" || u.Fun == "O" || u.Fun == "mult") {
					arith = true
					return false
				}
				return true
			})
		}
		check(f.T1)
		check(f.T2)
		return arith
	case kernel.FNot:
		return looksArith(f.L)
	case kernel.FFalse:
		return true
	}
	return false
}

// structural emits the goal-shape candidate pool in order, each text with
// its heuristic h: a pure function of (goal, env). A text is the
// concatenation of its parts, rendered into the model's text buffer, which
// emit must not retain: Propose resolves it to an id without allocating
// (idOfBuf), so only a text the vocabulary lacks becomes a string.
func (m *Model) structural(g *tactic.Goal, emit func(text []byte, h float64)) {
	add := func(h float64, parts ...string) {
		b := m.textBuf[:0]
		for _, part := range parts {
			b = append(b, part...)
		}
		m.textBuf = b
		emit(b, h)
	}
	c := g.Concl

	switch c.Kind {
	case kernel.FForall, kernel.FImpl:
		add(2.6, "intros.")
	case kernel.FNot:
		add(2.2, "intro.")
	case kernel.FAnd:
		add(2.5, "split.")
	case kernel.FIff:
		add(2.2, "split.")
	case kernel.FOr:
		add(1.1, "left.")
		add(1.0, "right.")
	case kernel.FTrue:
		add(3.0, "constructor.")
	case kernel.FFalse:
		add(1.4, "contradiction.")
	case kernel.FEq:
		add(2.1, "reflexivity.")
		add(1.4, "simpl.")
		add(0.2, "symmetry.")
		add(0.6, "congruence.")
		if c.T1.IsApp() && c.T2.IsApp() && c.T1.Fun == c.T2.Fun && len(c.T1.Args) == len(c.T2.Args) {
			add(1.0, "f_equal.")
		}
	case kernel.FExists:
		for _, v := range g.Vars {
			if c.BType == nil || v.Type == nil || v.Type.Name == c.BType.Name {
				add(1.5, "exists ", v.Name, ".")
			}
		}
		add(0.6, "exists 0.")
		add(0.5, "exists nil.")
	case kernel.FPred:
		if _, isInd := m.Env.Preds[c.Pred]; isInd {
			add(1.7, "constructor.")
			add(1.0, "econstructor.")
		}
		if _, isDef := m.Env.Defs[c.Pred]; isDef {
			add(1.8, "unfold ", c.Pred, ".")
		}
	}

	arithHyps := false
	for _, h := range g.Hyps {
		if looksArith(h.Form) {
			arithHyps = true
			break
		}
	}
	switch {
	case looksArith(c) && arithHyps:
		add(1.9, "omega.")
	case looksArith(c):
		add(1.3, "omega.")
	case arithHyps && (c.Kind == kernel.FEq || c.Kind == kernel.FFalse || c.Kind == kernel.FNot || c.Kind == kernel.FPred):
		add(1.4, "omega.")
	}
	add(1.2, "auto.")
	add(0.9, "eauto.")

	// Hypothesis-directed moves.
	substUseful := false
	gh := goalHead(c)
	var ck [2]uint64 // the conclusion's fingerprint, for assumption
	if len(g.Hyps) > 0 {
		ck = c.FingerprintKey()
	}
	for _, h := range g.Hyps {
		switch h.Form.Kind {
		case kernel.FFalse:
			add(3.0, "contradiction.")
		case kernel.FAnd, kernel.FExists, kernel.FOr:
			add(1.6, "destruct ", h.Name, ".")
			add(0.6, "inversion ", h.Name, ".")
		case kernel.FIff:
			add(1.2, "destruct ", h.Name, ".")
		case kernel.FEq:
			if h.Form.T1.IsVar() || h.Form.T2.IsVar() {
				substUseful = true
			}
			add(1.1, "rewrite ", h.Name, ".")
			add(0.5, "rewrite <- ", h.Name, ".")
			add(0.1, "rewrite ", h.Name, " in *.") // unsupported form: realistic junk
			if h.Form.T1.IsApp() && h.Form.T2.IsApp() && m.Env.IsConstructor(h.Form.T1.Fun) && m.Env.IsConstructor(h.Form.T2.Fun) {
				if h.Form.T1.Fun != h.Form.T2.Fun {
					add(2.6, "discriminate ", h.Name, ".")
				} else {
					add(1.6, "inversion ", h.Name, ".")
				}
			}
			add(0.5, "simpl in ", h.Name, ".")
		case kernel.FPred:
			if _, isInd := m.Env.Preds[h.Form.Pred]; isInd {
				w := 1.0
				for _, a := range h.Form.Args {
					if a.IsApp() && m.Env.IsConstructor(a.Fun) {
						w = 1.8
						break
					}
				}
				add(w, "inversion ", h.Name, ".")
				add(0.8, "induction ", h.Name, ".")
			}
			if _, isDef := m.Env.Defs[h.Form.Pred]; isDef {
				add(1.4, "unfold ", h.Form.Pred, " in ", h.Name, ".")
			}
			add(0.4, "simpl in ", h.Name, ".")
		case kernel.FForall, kernel.FImpl:
			if conclHead(h.Form) == gh {
				add(1.9, "apply ", h.Name, ".")
				add(1.1, "eapply ", h.Name, ".")
			} else {
				add(0.5, "apply ", h.Name, ".")
			}
			// Quantified equations (induction hypotheses above all) are
			// rewriting material.
			if conclHead(h.Form) == "=" {
				w := 1.4
				if strings.HasPrefix(h.Name, "IH") {
					w = 2.1
				}
				add(w, "rewrite ", h.Name, ".")
				add(0.4*w, "rewrite <- ", h.Name, ".")
			}
		case kernel.FNot:
			if c.Kind == kernel.FFalse {
				add(2.0, "apply ", h.Name, ".")
			}
		}
		if h.Form.FingerprintKey() == ck {
			add(3.2, "assumption.")
		}
	}
	if substUseful {
		add(1.9, "subst.")
	}

	// Variable-directed induction/destruct. A variable scrutinized by a
	// recursive function in the goal is the prime induction candidate.
	recArgs := m.recursiveArgVars(c)
	for _, v := range g.Vars {
		if v.Type == nil || v.Type.TVar {
			continue
		}
		if _, isData := m.Env.Datatypes[v.Type.Name]; !isData {
			continue
		}
		switch {
		case recArgs[v.Name]:
			add(2.2, "induction ", v.Name, ".")
			add(1.0, "destruct ", v.Name, ".")
		case c.HasFreeVar(v.Name):
			add(1.1, "induction ", v.Name, ".")
			add(0.9, "destruct ", v.Name, ".")
		default:
			add(0.1, "destruct ", v.Name, ".")
		}
	}
	// Induction on a not-yet-introduced leading binder (skipping type
	// binders, which are not inductive).
	if c.Kind == kernel.FForall {
		body := c
		seen := 0
		for body != nil && body.Kind == kernel.FForall && seen < 3 {
			if !body.BType.IsType() {
				w := 1.0
				if recArgs[body.Binder] {
					w = 2.0
				}
				add(w, "induction ", body.Binder, ".")
				seen++
			}
			body = body.Body
		}
	}

	// simpl when computation is visible.
	computes := false
	forEachSymbol(c, func(s string) {
		if _, isFun := m.Env.Funs[s]; isFun {
			computes = true
		}
	})
	if computes {
		add(1.3, "simpl.")
	}

	// Stuck matches invite case analysis on the scrutinee (the
	// `destruct (eqb a n) eqn:He` idiom).
	for _, scrut := range stuckScrutinees(c, 2) {
		add(2.0, "destruct (", scrut, ") eqn:He.")
	}
	for _, h := range g.Hyps {
		for _, scrut := range stuckScrutinees(h.Form, 1) {
			add(1.3, "destruct (", scrut, ") eqn:He.")
		}
	}

	// Targeted rewriting: an equation hypothesis whose left-hand side
	// occurs in another hypothesis or in the goal.
	for _, e := range g.Hyps {
		if e.Form.Kind != kernel.FEq || !e.Form.T1.IsApp() || len(e.Form.T1.Args) == 0 {
			continue
		}
		lhs := e.Form.T1
		if formContainsTerm(c, lhs) {
			add(2.0, "rewrite ", e.Name, ".")
		}
		for _, h := range g.Hyps {
			if h.Name == e.Name {
				continue
			}
			if formContainsTerm(h.Form, lhs) {
				add(1.8, "rewrite ", e.Name, " in ", h.Name, ".")
			}
		}
	}
}

// stuckScrutinees collects the printable scrutinees of up to max stuck
// matches in a formula.
func stuckScrutinees(f *kernel.Form, max int) []string {
	var out []string
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if len(out) >= max {
				return false
			}
			if u.Match != nil && !u.Match.Scrut.IsVar() {
				// Only propose scrutinees that print as plain applications.
				if u.Match.Scrut.IsApp() {
					out = append(out, u.Match.Scrut.String())
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil || len(out) >= max {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		}
	}
	walk(f)
	return out
}

// formContainsTerm reports whether t occurs in any term position of f.
func formContainsTerm(f *kernel.Form, t *kernel.Term) bool {
	found := false
	check := func(u *kernel.Term) {
		if found {
			return
		}
		u.Subterms(func(x *kernel.Term) bool {
			if x.Equal(t) {
				found = true
				return false
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil || found {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			check(f.T1)
			check(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				check(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		case kernel.FForall, kernel.FExists:
			walk(f.Body)
		}
	}
	walk(f)
	return found
}

// recursiveArgVars returns the variables that occur as arguments of
// recursive function applications anywhere in the formula — the natural
// induction candidates.
func (m *Model) recursiveArgVars(f *kernel.Form) map[string]bool {
	out := map[string]bool{}
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsApp() {
				if fd, ok := m.Env.Funs[u.Fun]; ok && fd.Recursive {
					for _, a := range u.Args {
						if a.IsVar() {
							out[a.Var] = true
						}
					}
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		case kernel.FForall, kernel.FExists:
			walk(f.Body)
		}
	}
	walk(f)
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
// Propose calls it after viewFor.
func (m *Model) junk(out []textCand, rng *rand.Rand) []textCand {
	prof := m.Profile
	nJunk := int(math.Round(prof.NoiseRate * 10))
	level := 3.4 * prof.NoiseRate
	for i := 0; i < nJunk; i++ {
		u := (0.4 + rng.Float64()) * level
		switch rng.Intn(4) {
		case 0:
			out = append(out, textCand{text: junkTactics[rng.Intn(len(junkTactics))], j: u})
		case 1:
			// Apply a random visible lemma regardless of relevance.
			if name := m.randomLemma(rng); name != "" {
				out = append(out, textCand{text: "apply " + name + ".", j: u})
			}
		case 2:
			if name := m.randomLemma(rng); name != "" {
				out = append(out, textCand{text: "rewrite " + name + ".", j: u})
			}
		default:
			// Reference a plausible but possibly absent hypothesis.
			out = append(out, textCand{text: junkHypApply[rng.Intn(9)], j: u})
		}
	}
	return out
}

// randomLemma draws a visible lemma's name, or "" when the prompt shows
// none. The view lists the prompt's lemma items in prompt order.
func (m *Model) randomLemma(rng *rand.Rand) string {
	lems := m.view.lems
	if len(lems) == 0 {
		return ""
	}
	return lems[rng.Intn(len(lems))].name
}
