package model

import (
	"math"
	"strings"

	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
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
//     the visible lemmas, built once per search and dropped by Rebind;
//   - the goal: symbol marks, stamped per query from the facts of its
//     formulas (facts.go), which are computed once per search.

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
	idx      int32 // the row's index in the table
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

// head is a formula's head as an integer: the connectives are small
// constants and a predicate P is headPred + id(P), with id a table symbol id
// (LemmaTable.headOf) or a name id (Model.goalHead), so heads compare
// without building "P:"+pred strings. A table head maps a predicate outside
// the table to headNone, which no lemma's head equals — exactly as no
// lemma's head string would.
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
	n := len(env.LemmaOrder)
	t := &LemmaTable{
		byName: make(map[string]int32, n),
		lems:   make([]lemEntry, 0, n),
		symID:  map[string]int32{},
		keys:   make([]string, 0, 4*n),
		keyID:  make(map[string]int32, 4*n),
	}
	for _, name := range env.LemmaOrder {
		if lem, ok := env.Lemmas[name]; ok {
			t.add(lem)
		}
	}
	return t
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
		idx:        int32(len(t.lems)),
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

// headOf is the head of a goal's conclusion f, with a predicate numbered
// by its table symbol id.
func (t *LemmaTable) headOf(f *kernel.Form) head {
	return formHead(f, func(pred string) head {
		if id, ok := t.symID[pred]; ok {
			return headPred + head(id)
		}
		return headNone
	})
}

// formHead is the head of a goal's conclusion f: its connective, or its
// predicate, numbered by predHead.
func formHead(f *kernel.Form, predHead func(string) head) head {
	switch f.Kind {
	case kernel.FPred:
		return predHead(f.Pred)
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

// retrView is a Model's view of the lemmas its prompt shows. A nil prompt
// marks no view; the next view reuses lems' backing array. mined holds the
// ids of the n-gram's continuations, pairs and successors, at minedAt's
// offsets (see minedIDs).
type retrView struct {
	prompt  *prompt.Prompt
	ng      *NGram
	lems    []lemView
	mined   []int32
	minedAt map[*nextSteps]int
}

// viewFor returns the visible lemmas of p, rebuilding the view only when
// the (prompt, n-gram) pair changes — once per search in a sweep. Propose
// calls it before resolving any candidate id: after a rebind onto another
// lemma table, the first view renumbers the vocabulary.
func (m *Model) viewFor(p *prompt.Prompt, ng *NGram) []lemView {
	if m.view.prompt == p && m.view.ng == ng {
		return m.view.lems
	}
	lems := m.buildView(p, ng)
	m.view.prompt, m.view.ng, m.view.lems = p, ng, lems
	m.view.mined = m.view.mined[:0]
	clear(m.view.minedAt)
	if m.idsOf != m.lemmas {
		m.resetIDs()
	}
	// Retrieval emits the view's table ids without a vocabulary lookup, so
	// their state must exist before the first query.
	top := int32(-1)
	for i := range lems {
		top = max(top, lems[i].rewrite, lems[i].rewriteRev, lems[i].apply, lems[i].eapply)
	}
	m.growTab(top)
	return lems
}

// buildView pairs each visible lemma the env contains with its table row.
// It panics on a lemma the table lacks or analyzed under another
// statement: retrieval would score a statement the model cannot see.
func (m *Model) buildView(p *prompt.Prompt, ng *NGram) []lemView {
	prof := m.Profile
	n := len(p.Items)
	lems := m.view.lems[:0]
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
			panic("model: the lemma table has no row for visible lemma " + it.Name + " under the statement its environment declares")
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
	return lems
}

// markSymbols stamps the table ids of the goal's symbols into goalMark and
// of the hypotheses' symbols into hypMark, with a fresh epoch, so a lemma
// symbol tests membership by one array load; hypFirst records the first
// hypothesis mentioning each symbol. Returns the epoch.
func (m *Model) markSymbols() uint32 {
	if n := len(m.lemmas.symID); len(m.goalMark) < n {
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
	for _, id := range m.ints(m.facts[m.concl].syms) {
		m.goalMark[id] = ep
	}
	for i, h := range m.hyps {
		for _, id := range m.ints(m.facts[h.facts].syms) {
			if m.hypMark[id] != ep {
				m.hypMark[id] = ep
				m.hypFirst[id] = int32(i)
			}
		}
	}
	return ep
}

// retrieval appends the view's lemma candidates for the goal resolveGoal
// resolved.
func (m *Model) retrieval(out []scored) []scored {
	lems := m.view.lems
	ep := m.markSymbols()
	goalMark, hypMark := m.goalMark, m.hypMark
	gh := m.facts[m.concl].thead

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
				h := m.hyps[m.hypFirst[rec.lhsHead]]
				out = append(out, scored{id: m.candID(tLemRewriteIn, rec.idx, h.name), r: 0.8 * w})
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
		// Forward chaining into the first hypothesis the premise matches.
		if rec.hasPrems && rec.premHead != headUnknown {
			for _, h := range m.hyps {
				if h.head == rec.premHead {
					out = append(out, scored{id: m.candID(tLemApplyIn, rec.idx, h.name), r: 0.5 * rel})
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
