package model

import (
	"math"
	"strings"

	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
)

// ---------------------------------------------------------------------------
// Retrieval from the visible prompt
//
// Retrieval scores every lemma visible in the prompt against the focused
// goal on each query. Its work splits three ways by what it depends on:
//
//   - the lemma statements alone (symbols, conclusion shape, candidate
//     keys): a LemmaTable, built once per corpus and shared by every search;
//   - the prompt and n-gram (position decay, hint-proof usage): a view of
//     the visible lemmas, built once per search and dropped with the Model;
//   - the goal: symbol marks and hypothesis heads, computed per query.

// LemmaTable is the goal-independent analysis of lemma statements: each
// lemma's symbols as small-integer ids, its overlap normalizer, the heads
// of its equation, conclusion and first premise, and the dedup keys of the
// candidates it yields, numbered as candidate ids. A row depends on the
// statement alone — not on the prompt, n-gram, or profile — so one table
// built over a corpus environment serves every search of a sweep. It is
// immutable after construction and safe for concurrent use.
type LemmaTable struct {
	byName map[string]int32 // lemma name -> index into lems
	lems   []lemEntry
	symID  map[string]int32 // applied symbol -> id, in first-encounter order
	// keys lists the candidate dedup keys the rows yield; a key's index is
	// its candidate id, and keyID inverts it. Models number every other
	// key after these (see Model).
	keys  []string
	keyID map[string]int32
}

// lemEntry is one lemma's row of a LemmaTable.
type lemEntry struct {
	name     string
	stmt     *kernel.Form // the analyzed statement (a Model checks its env agrees)
	syms     []int32      // unique statement symbols, deterministic walk order
	sqrtN    float64      // sqrt(len(syms)), the overlap normalizer
	isEq     bool
	lhsHead  int32 // symbol id of the equation LHS head (-1 if none)
	concl    head  // head of the conclusion
	premHead head  // head of the first premise (meaningful when hasPrems)
	hasPrems bool
	// Candidate ids of "rewrite L.", "rewrite <- L.", "apply L." and
	// "eapply L.": rendered, normalized and numbered once here instead of
	// per query.
	rewrite, rewriteRev, apply, eapply int32
}

// head is goalHead as an integer: the connectives are small constants and
// a predicate P is headPred + id(P), so heads compare without building
// "P:"+pred strings. A predicate outside the table maps to headNone, which
// no lemma's head equals — exactly as no lemma's head string would.
type head int32

const (
	headNone    head = iota - 1
	headUnknown      // "?"
	headEq
	headAnd
	headOr
	headIff
	headNot
	headTrue
	headFalse
	headAll
	headEx
	headImpl
	headPred // + symbol id
)

// NewLemmaTable analyzes every lemma of env, in declaration order. A table
// over a corpus environment serves the Models of every environment
// restricted from it (restriction shares the lemma statements).
func NewLemmaTable(env *kernel.Env) *LemmaTable {
	t := newLemmaTable(len(env.LemmaOrder))
	for _, name := range env.LemmaOrder {
		if lem, ok := env.Lemmas[name]; ok {
			t.add(lem)
		}
	}
	return t
}

// promptLemmaTable analyzes only the lemmas p shows that env contains: the
// private table of a Model given no shared one.
func promptLemmaTable(p *prompt.Prompt, env *kernel.Env) *LemmaTable {
	t := newLemmaTable(len(p.Items))
	for _, it := range p.Items {
		if it.Kind != corpus.ItemLemma {
			continue
		}
		if lem, ok := env.Lemmas[it.Name]; ok {
			t.add(lem)
		}
	}
	return t
}

func newLemmaTable(n int) *LemmaTable {
	return &LemmaTable{
		byName: make(map[string]int32, n),
		lems:   make([]lemEntry, 0, n),
		symID:  map[string]int32{},
		keys:   make([]string, 0, 4*n),
		keyID:  make(map[string]int32, 4*n),
	}
}

// Len reports the number of lemmas in the table.
func (t *LemmaTable) Len() int { return len(t.lems) }

// entry returns the row analyzing stmt under name, or nil when the table
// has no such row (the name is unknown or was declared with another
// statement).
func (t *LemmaTable) entry(name string, stmt *kernel.Form) *lemEntry {
	i, ok := t.byName[name]
	if !ok || t.lems[i].stmt != stmt {
		return nil
	}
	return &t.lems[i]
}

func (t *LemmaTable) add(lem *kernel.Lemma) {
	if _, dup := t.byName[lem.Name]; dup {
		return
	}
	_, matrix := lem.Stmt.StripForalls()
	prems, concl := matrix.StripImpls()
	syms := orderedSymbols(lem.Stmt)
	e := lemEntry{
		name:       lem.Name,
		stmt:       lem.Stmt,
		syms:       make([]int32, len(syms)),
		sqrtN:      math.Sqrt(float64(len(syms))),
		isEq:       concl.Kind == kernel.FEq,
		lhsHead:    -1,
		concl:      t.internHead(concl),
		hasPrems:   len(prems) > 0,
		rewrite:    t.internKey("rewrite " + lem.Name + "."),
		rewriteRev: t.internKey("rewrite <- " + lem.Name + "."),
		apply:      t.internKey("apply " + lem.Name + "."),
		eapply:     t.internKey("eapply " + lem.Name + "."),
	}
	for i, s := range syms {
		e.syms[i] = t.intern(s)
	}
	if e.isEq && concl.T1.IsApp() && concl.T1.Fun != "" {
		e.lhsHead = t.intern(concl.T1.Fun)
	}
	if e.hasPrems {
		e.premHead = t.internHead(stripQuant(prems[0]))
	}
	t.byName[lem.Name] = int32(len(t.lems))
	t.lems = append(t.lems, e)
}

func (t *LemmaTable) intern(s string) int32 {
	id, ok := t.symID[s]
	if !ok {
		id = int32(len(t.symID))
		t.symID[s] = id
	}
	return id
}

// internKey numbers the dedup key of a candidate text.
func (t *LemmaTable) internKey(text string) int32 {
	key := dedupKey(text)
	id, ok := t.keyID[key]
	if !ok {
		id = int32(len(t.keys))
		t.keys = append(t.keys, key)
		t.keyID[key] = id
	}
	return id
}

// internHead is headOf for a lemma being added: its predicate gets an id.
func (t *LemmaTable) internHead(f *kernel.Form) head {
	if f.Kind == kernel.FPred {
		t.intern(f.Pred)
	}
	return t.headOf(f)
}

// headOf mirrors goalHead.
func (t *LemmaTable) headOf(f *kernel.Form) head {
	switch f.Kind {
	case kernel.FPred:
		if id, ok := t.symID[f.Pred]; ok {
			return headPred + head(id)
		}
		return headNone
	case kernel.FEq:
		return headEq
	case kernel.FAnd:
		return headAnd
	case kernel.FOr:
		return headOr
	case kernel.FIff:
		return headIff
	case kernel.FNot:
		return headNot
	case kernel.FTrue:
		return headTrue
	case kernel.FFalse:
		return headFalse
	case kernel.FForall:
		return headAll
	case kernel.FExists:
		return headEx
	case kernel.FImpl:
		return headImpl
	default:
		return headUnknown
	}
}

// dedupKey is the normalized form fold deduplicates candidates by.
func dedupKey(text string) string {
	return strings.TrimSuffix(textmetrics.NormalizeScript(text), ".")
}

// lemView is one visible lemma as a search sees it: the table row plus the
// weights that depend on the prompt and n-gram.
type lemView struct {
	*lemEntry
	quality float64 // RetrievalSkill * position decay
	usage   float64 // log1p(hint-proof usage count)
}

// retrView is a Model's view of the lemmas its prompt shows.
type retrView struct {
	prompt *prompt.Prompt
	ng     *NGram
	lems   []lemView
}

// viewFor returns the visible lemmas of p, rebuilding the view only when
// the (prompt, n-gram) pair changes — once per search in a sweep. It
// settles the lemma table, so Propose calls it before resolving any
// candidate id: a table change renumbers the vocabulary, and a new view
// drops the slate memo, whose retrieval half it invalidates.
func (m *Model) viewFor(p *prompt.Prompt, ng *NGram) []lemView {
	if m.view != nil && m.view.prompt == p && m.view.ng == ng {
		return m.view.lems
	}
	lems, ok := m.buildView(p, ng)
	if !ok {
		// No table yet, or the shared one analyzed another statement under
		// a visible name: analyze what this prompt shows privately.
		m.lemmas = promptLemmaTable(p, m.Env)
		lems, _ = m.buildView(p, ng)
	}
	m.view = &retrView{prompt: p, ng: ng, lems: lems}
	if m.idsOf != m.lemmas {
		m.resetIDs()
	}
	clear(m.slate)
	// Retrieval emits the view's table ids without a vocabulary lookup, so
	// their state must exist before the first query.
	top := int32(-1)
	for i := range lems {
		top = max(top, lems[i].rewrite, lems[i].rewriteRev, lems[i].apply, lems[i].eapply)
	}
	m.growTab(top)
	return lems
}

// buildView pairs each visible lemma the env contains with its table row;
// it fails if the table lacks one.
func (m *Model) buildView(p *prompt.Prompt, ng *NGram) ([]lemView, bool) {
	if m.lemmas == nil {
		return nil, false
	}
	prof := m.Profile
	n := len(p.Items)
	var lems []lemView
	for i, it := range p.Items {
		if it.Kind != corpus.ItemLemma {
			continue
		}
		lem, ok := m.Env.Lemmas[it.Name]
		if !ok {
			continue
		}
		e := m.lemmas.entry(it.Name, lem.Stmt)
		if e == nil {
			return nil, false
		}
		dist := float64(n - 1 - i)
		decay := math.Exp2(-dist / prof.DistractionHalfLife)
		v := lemView{lemEntry: e, quality: prof.RetrievalSkill * decay}
		// Usage statistics from hint proofs: lemmas the humans applied
		// often are much easier for the model to surface.
		if ng != nil {
			v.usage = math.Log1p(ng.NameUsage(it.Name))
		}
		lems = append(lems, v)
	}
	return lems, true
}

// markSymbols stamps the table ids of the goal's symbols into goalMark and
// of the hypotheses' symbols into hypMark, with a fresh epoch, so a lemma
// symbol tests membership by one array load; hypFirst records the first
// hypothesis mentioning each symbol. Returns the epoch.
func (m *Model) markSymbols(g *tactic.Goal) uint32 {
	t := m.lemmas
	if n := len(t.symID); len(m.goalMark) < n {
		m.goalMark = make([]uint32, n)
		m.hypMark = make([]uint32, n)
		m.hypFirst = make([]int32, n)
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.goalMark)
		clear(m.hypMark)
		m.epoch = 1
	}
	ep := m.epoch
	forEachSymbol(g.Concl, func(s string) {
		if id, ok := t.symID[s]; ok {
			m.goalMark[id] = ep
		}
	})
	for i, h := range g.Hyps {
		forEachSymbol(h.Form, func(s string) {
			if id, ok := t.symID[s]; ok && m.hypMark[id] != ep {
				m.hypMark[id] = ep
				m.hypFirst[id] = int32(i)
			}
		})
	}
	return ep
}

func (m *Model) retrieval(out []scored, p *prompt.Prompt, g *tactic.Goal, ng *NGram) []scored {
	lems := m.viewFor(p, ng)
	ep := m.markSymbols(g)
	goalMark, hypMark := m.goalMark, m.hypMark
	gh := m.lemmas.headOf(g.Concl)
	hypHeads := m.hypHeads[:0]
	for _, h := range g.Hyps {
		hypHeads = append(hypHeads, m.lemmas.headOf(h.Form))
	}
	m.hypHeads = hypHeads

	for i := range lems {
		rec := &lems[i]
		overlap := 0.0
		for _, s := range rec.syms {
			if goalMark[s] == ep {
				overlap += 1.0
			} else if hypMark[s] == ep {
				overlap += 0.4
			}
		}
		if len(rec.syms) > 0 {
			overlap /= rec.sqrtN
		}

		rel := (overlap + 1.6*rec.usage) * rec.quality
		if rec.isEq {
			// Equation: rewriting material.
			w := rel
			if rec.lhsHead >= 0 && goalMark[rec.lhsHead] == ep {
				w += 1.3 * rec.quality
			}
			out = append(out, scored{id: rec.rewrite, r: w})
			out = append(out, scored{id: rec.rewriteRev, r: 0.4 * w})
			if rec.lhsHead >= 0 && hypMark[rec.lhsHead] == ep {
				h := g.Hyps[m.hypFirst[rec.lhsHead]]
				out = append(out, scored{id: m.idOf("rewrite " + rec.name + " in " + h.Name + "."), r: 0.8 * w})
			}
		}
		if rec.concl == gh {
			w := rel + 1.1*rec.quality
			out = append(out, scored{id: rec.apply, r: w})
			if rec.hasPrems {
				out = append(out, scored{id: rec.eapply, r: 0.7 * w})
			}
		} else if overlap > 0.5 {
			out = append(out, scored{id: rec.apply, r: 0.3 * rel})
		}
		// Forward chaining into a matching hypothesis.
		if rec.hasPrems && rec.premHead != headUnknown {
			for j, hh := range hypHeads {
				if hh == rec.premHead {
					out = append(out, scored{id: m.idOf("apply " + rec.name + " in " + g.Hyps[j].Name + "."), r: 0.5 * rel})
					break
				}
			}
		}
	}
	return out
}

func stripQuant(f *kernel.Form) *kernel.Form {
	for f != nil && f.Kind == kernel.FForall {
		f = f.Body
	}
	return f
}
