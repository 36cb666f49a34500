package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// Propose calls on the same Model (grid workers each build their own).
type Model struct {
	Profile Profile
	Env     *kernel.Env
	// lemmas is the lemma-statement analysis retrieval reads: the corpus
	// table shared by a sweep (NewWithLemmas), or a private table over the
	// prompt's lemmas built on first use. view pairs the visible lemmas
	// with their prompt- and n-gram-dependent weights; it lives and dies
	// with this Model, so memory does not grow with the searches run.
	lemmas *LemmaTable
	view   *retrView
	norm   map[string]string // candidate text -> dedup key memo
	// scoreParts caches the candidate-local terms of NGram.Score (the
	// unigram and head-word components, which depend only on the candidate
	// text); the prev-dependent bigram row is hoisted out of the candidate
	// loop instead of being memoized, which keeps the memo's cardinality at
	// the candidate vocabulary rather than its product with every prev.
	// Cleared when the n-gram changes.
	scoreNG    *NGram
	scoreParts map[string]scorePart

	// Propose scratch space, reused across the queries of a search. The
	// sweep spends most of its time in Propose, and per-query maps and
	// slices were the dominant allocation source.
	pool, uniq, jpool []scored
	slate             map[[2]uint64]*slateEntry
	// byText indexes full-pool folds (slate-miss queries); overlay indexes
	// only the per-query candidates layered over a memoized slate, so a
	// memo-hit query clears a map holding a handful of entries instead of
	// one sized for the whole pool.
	byText, overlay map[string]int
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

// slateEntry is the memoized deterministic slate for one focused goal: the
// structural + retrieval pool, already normalized and deduplicated. A Model
// serves one search, so its prompt and n-gram are fixed for its lifetime
// and the entry depends on the goal identity alone; only the prev-dependent
// continuations and the rng-driven noise are folded in per query. byText
// maps dedup key -> index into uniq and is read-only after construction.
type slateEntry struct {
	uniq   []scored
	byText map[string]int
}

// New binds a profile to an environment. The model analyzes the lemma
// statements its prompt shows on first use; NewWithLemmas shares that
// analysis across models instead.
func New(p Profile, env *kernel.Env) *Model { return &Model{Profile: p, Env: env} }

// NewWithLemmas binds a profile to an environment and a shared lemma table,
// built by NewLemmaTable over the environment env was restricted from. A
// lemma the table analyzed with another statement than env's makes the
// model fall back to a private table, so results never depend on sharing.
func NewWithLemmas(p Profile, env *kernel.Env, lt *LemmaTable) *Model {
	return &Model{Profile: p, Env: env, lemmas: lt}
}

// scorePart holds the memoized candidate-local terms of NGram.Score,
// pre-scaled but kept separate so the final sum adds them in the same
// order as Score itself (floating-point addition does not reassociate).
type scorePart struct {
	u12, h05 float64
}

// scored is an internal candidate with its utility components.
type scored struct {
	text  string
	h     float64 // goal-directed heuristic (scaled by HeuristicSkill)
	r     float64 // retrieval relevance (already skill-scaled)
	j     float64 // raw utility (noise candidates compete unscaled)
	keyed bool    // text is already its dedup key (lemma-table candidates)
}

// Propose generates up to MaxOutputs tactic candidates for the focused goal
// of st. path is the proof-so-far (tactic sentences from the root), used by
// the n-gram component; ng may be nil (vanilla prompts have no proofs to
// mine). rng drives the sampling noise and must be owned by the caller for
// determinism.
//
// The returned slice is part of the model's reused scratch: it is valid
// only until the next Propose call on the same Model. Callers that retain
// candidates (the search engine's expansions do) must copy them first.
func (m *Model) Propose(p *prompt.Prompt, st *tactic.State, path []string, ng *NGram, rng *rand.Rand) []Candidate {
	if st.Done() || len(st.Goals) == 0 {
		return nil
	}
	goal := st.Goals[0]
	prev := "<start>"
	if len(path) > 0 {
		prev = textmetrics.NormalizeScript(path[len(path)-1])
	}

	// The deterministic slate (structural + retrieval, deduplicated) is a
	// pure function of the goal for this Model's fixed prompt and n-gram;
	// searches revisit the same focused goal across queries (repeat's
	// progress loops, siblings sharing unfocused goals), and the memo keys
	// on StrictKey because candidate texts mention concrete names.
	if m.norm == nil {
		m.norm = map[string]string{}
		m.byText = map[string]int{}
		m.overlay = map[string]int{}
	}
	if m.slate == nil {
		m.slate = map[[2]uint64]*slateEntry{}
	}
	gk := goal.StrictKey()
	ent, revisit := m.slate[gk]
	var uniq []scored
	var over map[string]int
	var base map[string]int
	if ent != nil {
		clear(m.overlay)
		over = m.overlay
		uniq = append(m.uniq[:0], ent.uniq...)
		base = ent.byText
	} else {
		clear(m.byText)
		over = m.byText
		pool := m.structural(m.pool[:0], goal)
		pool = m.retrieval(pool, p, goal, ng)
		m.pool = pool
		if revisit {
			// Second sighting: this goal does recur, so the entry will pay
			// for itself (first sightings — most goals in a search — stay
			// in scratch and allocate nothing per query).
			ent = &slateEntry{byText: make(map[string]int, len(pool))}
			for _, c := range pool {
				ent.uniq = m.fold(ent.uniq, ent.byText, nil, c)
			}
			m.slate[gk] = ent
			uniq = append(m.uniq[:0], ent.uniq...)
			base = ent.byText
		} else {
			m.slate[gk] = nil
			uniq = m.uniq[:0]
			for _, c := range pool {
				uniq = m.fold(uniq, over, nil, c)
			}
		}
	}
	// Fold the per-query candidates on top: the idiomatic continuations
	// mined from hint proofs (prev-dependent, including two-step "a; b"
	// compounds) and the capability noise (corrupted names and junk tactics
	// competing with real candidates). Merge order matches a single deduped
	// pool exactly, so slates are byte-identical to the memo-free path.
	if nx := ng.nextOf(prev); nx != nil {
		for _, cont := range nx.conts {
			uniq = m.fold(uniq, over, base, scored{text: cont, h: 0.9})
		}
		for _, pair := range nx.pairs {
			uniq = m.fold(uniq, over, base, scored{text: pair.Text, h: 1.1 + 0.25*math.Log1p(pair.Count)})
		}
	}
	m.jpool = m.junk(m.jpool[:0], goal, p, rng)
	for _, c := range m.jpool {
		uniq = m.fold(uniq, over, base, c)
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
	lanes := resize(&m.scoreBuf, 3*len(uniq))
	utils := lanes[:len(uniq):len(uniq)]
	maxU := math.Inf(-1)
	var biRow map[string]float64
	scoreable := ng != nil && ng.total != 0
	if scoreable {
		if m.scoreNG != ng {
			m.scoreNG = ng
			if m.scoreParts == nil {
				m.scoreParts = map[string]scorePart{}
			} else {
				clear(m.scoreParts)
			}
		}
		biRow = ng.bi[prev]
	}
	for i, c := range uniq {
		// Open-coded ng.Score(prev, c.text): c.text is the dedup key, so
		// it is already whitespace-normalized and Score's NormalizeScript
		// would be the identity; the candidate-local terms come from the
		// memo and the bigram row lookup is hoisted above the loop. The
		// terms are summed in Score's order so the result is bit-identical.
		g := 0.0
		if scoreable {
			pt, ok := m.scoreParts[c.text]
			if !ok {
				// Log1p(0) is exactly 0, so the zero-count fast paths are
				// bit-identical; most candidates miss the n-gram tables.
				if n := ng.uni[c.text]; n != 0 {
					pt.u12 = 0.12 * math.Log1p(n)
				}
				if n := ng.headUN[headOf(c.text)]; n != 0 {
					pt.h05 = 0.05 * math.Log1p(n)
				}
				m.scoreParts[c.text] = pt
			}
			if biRow != nil {
				if n := biRow[c.text]; n != 0 {
					g = 0.6 * math.Log1p(n)
				}
			}
			g += pt.u12
			g += pt.h05
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
	probs := lanes[len(uniq) : 2*len(uniq) : 2*len(uniq)]
	var z float64
	for i, u := range utils {
		probs[i] = math.Exp((u - maxU) / temp)
		z += probs[i]
	}
	for i := range probs {
		probs[i] /= z
	}
	// Gumbel-top-k selects MaxOutputs distinct candidates proportionally;
	// confidence pruning then drops candidates far below the mode — a
	// confident model's k samples concentrate and return fewer distinct
	// tactics (why the paper sees more "stuck" than "fuelout").
	keys := lanes[2*len(uniq):]
	for i, p := range probs {
		keys[i] = math.Log(p) + gumbel(rng)
	}
	// Stable top-k selection, equivalent to a full stable sort by key
	// descending followed by order[:k] (k is MaxOutputs, at most 8, while
	// the slate runs to hundreds): an insertion beats an equal key never —
	// later indices stay after earlier ones, exactly the stable-sort order.
	k := prof.MaxOutputs
	if k > len(uniq) {
		k = len(uniq)
	}
	order := resizeInt(&m.order, len(uniq))[:0]
	for i := range keys {
		n := len(order)
		if n < k {
			order = append(order, i)
			n++
		} else if keys[i] > keys[order[n-1]] {
			order[n-1] = i
		} else {
			continue
		}
		for j := n - 1; j > 0 && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
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
		out = append(out, Candidate{Tactic: uniq[idx].text, LogProb: math.Log(probs[idx])})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].LogProb > out[b].LogProb })
	m.out = out
	return out
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

// gumbel draws a standard Gumbel variate.
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(-math.Log(u))
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

// fold merges one candidate into the deduplicated slate, keeping the best
// score per component for repeated keys. over is the per-query overlay
// index; base, when non-nil, is a memoized slateEntry's read-only index
// (its entries address the copied prefix of uniq, so merging through it is
// safe — only uniq is mutated). Lemma-table candidates arrive keyed;
// other texts are normalized through a per-model memo: normalization is a
// pure string function and candidate texts repeat heavily across the
// queries of a search.
func (m *Model) fold(uniq []scored, over map[string]int, base map[string]int, c scored) []scored {
	key := c.text
	if !c.keyed {
		k, ok := m.norm[c.text]
		if !ok {
			k = dedupKey(c.text)
			m.norm[c.text] = k
		}
		key = k
	}
	if key == "" {
		return uniq
	}
	idx, ok := over[key]
	if !ok && base != nil {
		idx, ok = base[key]
	}
	if ok {
		if c.h > uniq[idx].h {
			uniq[idx].h = c.h
		}
		if c.r > uniq[idx].r {
			uniq[idx].r = c.r
		}
		if c.j > uniq[idx].j {
			uniq[idx].j = c.j
		}
		return uniq
	}
	over[key] = len(uniq)
	return append(uniq, scored{text: key, h: c.h, r: c.r, j: c.j})
}

// structural appends the goal-shape candidate pool: a pure function of
// (goal, env), memoized at the slate level in Propose.
func (m *Model) structural(out []scored, g *tactic.Goal) []scored {
	add := func(text string, h float64) { out = append(out, scored{text: text, h: h}) }
	c := g.Concl

	switch c.Kind {
	case kernel.FForall, kernel.FImpl:
		add("intros.", 2.6)
	case kernel.FNot:
		add("intro.", 2.2)
	case kernel.FAnd:
		add("split.", 2.5)
	case kernel.FIff:
		add("split.", 2.2)
	case kernel.FOr:
		add("left.", 1.1)
		add("right.", 1.0)
	case kernel.FTrue:
		add("constructor.", 3.0)
	case kernel.FFalse:
		add("contradiction.", 1.4)
	case kernel.FEq:
		add("reflexivity.", 2.1)
		add("simpl.", 1.4)
		add("symmetry.", 0.2)
		add("congruence.", 0.6)
		if c.T1.IsApp() && c.T2.IsApp() && c.T1.Fun == c.T2.Fun && len(c.T1.Args) == len(c.T2.Args) {
			add("f_equal.", 1.0)
		}
	case kernel.FExists:
		for _, v := range g.Vars {
			if c.BType == nil || v.Type == nil || v.Type.Name == c.BType.Name {
				add("exists "+v.Name+".", 1.5)
			}
		}
		add("exists 0.", 0.6)
		add("exists nil.", 0.5)
	case kernel.FPred:
		if _, isInd := m.Env.Preds[c.Pred]; isInd {
			add("constructor.", 1.7)
			add("econstructor.", 1.0)
		}
		if _, isDef := m.Env.Defs[c.Pred]; isDef {
			add("unfold "+c.Pred+".", 1.8)
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
		add("omega.", 1.9)
	case looksArith(c):
		add("omega.", 1.3)
	case arithHyps && (c.Kind == kernel.FEq || c.Kind == kernel.FFalse || c.Kind == kernel.FNot || c.Kind == kernel.FPred):
		add("omega.", 1.4)
	}
	add("auto.", 1.2)
	add("eauto.", 0.9)

	// Hypothesis-directed moves.
	substUseful := false
	gh := goalHead(c)
	for _, h := range g.Hyps {
		switch h.Form.Kind {
		case kernel.FFalse:
			add("contradiction.", 3.0)
		case kernel.FAnd, kernel.FExists, kernel.FOr:
			add("destruct "+h.Name+".", 1.6)
			add("inversion "+h.Name+".", 0.6)
		case kernel.FIff:
			add("destruct "+h.Name+".", 1.2)
		case kernel.FEq:
			if h.Form.T1.IsVar() || h.Form.T2.IsVar() {
				substUseful = true
			}
			add("rewrite "+h.Name+".", 1.1)
			add("rewrite <- "+h.Name+".", 0.5)
			add("rewrite "+h.Name+" in *.", 0.1) // unsupported form: realistic junk
			if h.Form.T1.IsApp() && h.Form.T2.IsApp() && m.Env.IsConstructor(h.Form.T1.Fun) && m.Env.IsConstructor(h.Form.T2.Fun) {
				if h.Form.T1.Fun != h.Form.T2.Fun {
					add("discriminate "+h.Name+".", 2.6)
				} else {
					add("inversion "+h.Name+".", 1.6)
				}
			}
			add("simpl in "+h.Name+".", 0.5)
		case kernel.FPred:
			if _, isInd := m.Env.Preds[h.Form.Pred]; isInd {
				w := 1.0
				for _, a := range h.Form.Args {
					if a.IsApp() && m.Env.IsConstructor(a.Fun) {
						w = 1.8
						break
					}
				}
				add("inversion "+h.Name+".", w)
				add("induction "+h.Name+".", 0.8)
			}
			if _, isDef := m.Env.Defs[h.Form.Pred]; isDef {
				add("unfold "+h.Form.Pred+" in "+h.Name+".", 1.4)
			}
			add("simpl in "+h.Name+".", 0.4)
		case kernel.FForall, kernel.FImpl:
			if conclHead(h.Form) == gh {
				add("apply "+h.Name+".", 1.9)
				add("eapply "+h.Name+".", 1.1)
			} else {
				add("apply "+h.Name+".", 0.5)
			}
			// Quantified equations (induction hypotheses above all) are
			// rewriting material.
			if conclHead(h.Form) == "=" {
				w := 1.4
				if strings.HasPrefix(h.Name, "IH") {
					w = 2.1
				}
				add("rewrite "+h.Name+".", w)
				add("rewrite <- "+h.Name+".", 0.4*w)
			}
		case kernel.FNot:
			if c.Kind == kernel.FFalse {
				add("apply "+h.Name+".", 2.0)
			}
		}
		if h.Form.FingerprintKey() == c.FingerprintKey() {
			add("assumption.", 3.2)
		}
	}
	if substUseful {
		add("subst.", 1.9)
	}

	// Variable-directed induction/destruct. A variable scrutinized by a
	// recursive function in the goal is the prime induction candidate.
	goalVars := c.FreeVars()
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
			add("induction "+v.Name+".", 2.2)
			add("destruct "+v.Name+".", 1.0)
		case goalVars[v.Name]:
			add("induction "+v.Name+".", 1.1)
			add("destruct "+v.Name+".", 0.9)
		default:
			add("destruct "+v.Name+".", 0.1)
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
				add("induction "+body.Binder+".", w)
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
		add("simpl.", 1.3)
	}

	// Stuck matches invite case analysis on the scrutinee (the
	// `destruct (eqb a n) eqn:He` idiom).
	for _, scrut := range stuckScrutinees(c, 2) {
		add("destruct ("+scrut+") eqn:He.", 2.0)
	}
	for _, h := range g.Hyps {
		for _, scrut := range stuckScrutinees(h.Form, 1) {
			add("destruct ("+scrut+") eqn:He.", 1.3)
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
			add("rewrite "+e.Name+".", 2.0)
		}
		for _, h := range g.Hyps {
			if h.Name == e.Name {
				continue
			}
			if formContainsTerm(h.Form, lhs) {
				add("rewrite "+e.Name+" in "+h.Name+".", 1.8)
			}
		}
	}
	return out
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

func (m *Model) junk(out []scored, g *tactic.Goal, p *prompt.Prompt, rng *rand.Rand) []scored {
	prof := m.Profile
	nJunk := int(math.Round(prof.NoiseRate * 10))
	level := 3.4 * prof.NoiseRate
	for i := 0; i < nJunk; i++ {
		u := (0.4 + rng.Float64()) * level
		switch rng.Intn(4) {
		case 0:
			out = append(out, scored{text: junkTactics[rng.Intn(len(junkTactics))], j: u})
		case 1:
			// Apply a random visible lemma regardless of relevance.
			if name := randomLemma(p, rng); name != "" {
				out = append(out, scored{text: "apply " + name + ".", j: u})
			}
		case 2:
			if name := randomLemma(p, rng); name != "" {
				out = append(out, scored{text: "rewrite " + name + ".", j: u})
			}
		default:
			// Reference a plausible but possibly absent hypothesis.
			out = append(out, scored{text: junkHypApply[rng.Intn(9)], j: u})
		}
	}
	return out
}

func randomLemma(p *prompt.Prompt, rng *rand.Rand) string {
	names := p.LemmaNames()
	if len(names) == 0 {
		return ""
	}
	return names[rng.Intn(len(names))]
}
