package model

import (
	"slices"

	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// ---------------------------------------------------------------------------
// Per-formula facts
//
// structural and retrieval read a handful of facts off each formula of the
// goal: its lemma-table symbols and head, whether it looks arithmetic, its
// stuck scrutinees, and so on. A search queries goals that share most of
// their hypotheses (a step adds or rewrites a few), and formulas are
// interned, so each fact is computed once per *kernel.Form per search and
// read from a memo at every later query. The memo depends on the
// environment and the lemma table, so Rebind drops it.

// formFacts is what Propose reads off one formula.
type formFacts struct {
	syms  span // unique lemma-table symbol ids (retrieval's marks)
	thead head // LemmaTable.headOf
	// ghead and chead are goalHead and conclHead with a predicate numbered
	// by its name id (see nameID), so two heads are equal exactly when the
	// strings the reference builds are.
	ghead, chead head
	pred         int32     // name id of the predicate (FPred), else -1
	fpk          [2]uint64 // the unseeded FingerprintKey, once fFpk is set (fpkOf)
	scruts       span      // ids of up to two stuck scrutinees (scrutID)
	recs         span      // name ids of the recursive-argument variables
	binders      span      // name ids of up to three leading non-type binders
	flags        factFlag
}

// span is a run of factInts.
type span struct{ off, n int32 }

type factFlag uint16

const (
	fArith       factFlag = 1 << iota // looksArith
	fComputes                         // applies a defined function
	fInd                              // FPred of an inductive predicate
	fDef                              // FPred of a definition
	fCtorArg                          // FPred with a constructor application argument
	fEqVar                            // FEq with a variable side
	fEqCtorsDiff                      // FEq between applications of distinct constructors
	fEqCtorsSame                      // FEq between applications of one constructor
	fEqSameFun                        // FEq between applications of one symbol at one arity
	fEqAppLHS                         // FEq whose left side applies a symbol to arguments
	fFpk                              // fpk is computed
)

func (f *formFacts) has(fl factFlag) bool { return f.flags&fl != 0 }

// ints returns a span's ids.
func (m *Model) ints(s span) []int32 { return m.factInts[s.off : s.off+s.n] }

// dropFacts empties the per-formula memo.
func (m *Model) dropFacts() {
	clear(m.factAt)
	m.facts = m.facts[:0]
	m.factInts = m.factInts[:0]
}

// resolveGoal looks up, for this query, the facts of g's conclusion and of
// each hypothesis, with the hypothesis's name id and table head.
func (m *Model) resolveGoal(g *tactic.Goal) {
	m.concl = m.factsOf(g.Concl)
	hyps := m.hyps[:0]
	for _, h := range g.Hyps {
		i := m.factsOf(h.Form)
		hyps = append(hyps, hypRef{name: m.nameID(h.Name), facts: i, head: m.facts[i].thead})
	}
	m.hyps = hyps
}

// factsOf returns the index of f's facts in m.facts, computing them on the
// first query of the search that meets f.
func (m *Model) factsOf(f *kernel.Form) int32 {
	if i, ok := m.factAt[f]; ok {
		return i
	}
	if m.factAt == nil {
		m.factAt = map[*kernel.Form]int32{}
	}
	i := int32(len(m.facts))
	m.facts = append(m.facts, m.analyze(f))
	m.factAt[f] = i
	return i
}

// analyze computes the facts of f.
func (m *Model) analyze(f *kernel.Form) formFacts {
	env, t := m.Env, m.lemmas
	ff := formFacts{
		thead: t.headOf(f),
		ghead: m.goalHead(f),
		chead: m.conclHead(f),
		pred:  -1,
	}
	if looksArith(f) {
		ff.flags |= fArith
	}
	switch f.Kind {
	case kernel.FPred:
		ff.pred = m.nameID(f.Pred)
		if _, ok := env.Preds[f.Pred]; ok {
			ff.flags |= fInd
		}
		if _, ok := env.Defs[f.Pred]; ok {
			ff.flags |= fDef
		}
		for _, a := range f.Args {
			if a.IsApp() && env.IsConstructor(a.Fun) {
				ff.flags |= fCtorArg
				break
			}
		}
	case kernel.FEq:
		l, r := f.T1, f.T2
		if l.IsVar() || r.IsVar() {
			ff.flags |= fEqVar
		}
		if l.IsApp() && r.IsApp() {
			if env.IsConstructor(l.Fun) && env.IsConstructor(r.Fun) {
				if l.Fun != r.Fun {
					ff.flags |= fEqCtorsDiff
				} else {
					ff.flags |= fEqCtorsSame
				}
			}
			if l.Fun == r.Fun && len(l.Args) == len(r.Args) {
				ff.flags |= fEqSameFun
			}
		}
		if l.IsApp() && len(l.Args) > 0 {
			ff.flags |= fEqAppLHS
		}
	}

	// One walk over the applied symbols (forEachSymbol's) yields the table
	// symbols, whether a defined function is applied, and the variables a
	// recursive function is applied to (recursiveArgVars').
	syms, recs := m.factSyms[:0], m.factRecs[:0]
	forEachApp(f, func(sym string, args []*kernel.Term) {
		if id, ok := t.symID[sym]; ok && !slices.Contains(syms, id) {
			syms = append(syms, id)
		}
		fd, ok := env.Funs[sym]
		if !ok {
			return
		}
		ff.flags |= fComputes
		if !fd.Recursive {
			return
		}
		for _, a := range args {
			if a.IsVar() {
				if id := m.nameID(a.Var); !slices.Contains(recs, id) {
					recs = append(recs, id)
				}
			}
		}
	})
	m.factSyms, m.factRecs = syms, recs
	ff.syms = m.putInts(syms)
	ff.recs = m.putInts(recs)

	m.factScruts = appendStuckScrutinees(m.factScruts[:0], f, 2)
	ff.scruts.off = int32(len(m.factInts))
	for _, s := range m.factScruts {
		m.factInts = append(m.factInts, m.scrutID(s))
	}
	ff.scruts.n = int32(len(m.factScruts))

	ff.binders.off = int32(len(m.factInts))
	for body := f; body != nil && body.Kind == kernel.FForall && ff.binders.n < 3; body = body.Body {
		if !body.BType.IsType() {
			m.factInts = append(m.factInts, m.nameID(body.Binder))
			ff.binders.n++
		}
	}
	return ff
}

// fpkOf returns the unseeded FingerprintKey of f, whose facts are at i,
// computing it on first use.
func (m *Model) fpkOf(i int32, f *kernel.Form) [2]uint64 {
	ff := &m.facts[i]
	if !ff.has(fFpk) {
		ff.fpk, ff.flags = f.FingerprintKey(), ff.flags|fFpk
	}
	return ff.fpk
}

// putInts copies ids into factInts.
func (m *Model) putInts(ids []int32) span {
	s := span{int32(len(m.factInts)), int32(len(ids))}
	m.factInts = append(m.factInts, ids...)
	return s
}

// nameID numbers a name a candidate mentions (a hypothesis, variable,
// binder or predicate). Names are numbered for the Model's life: a name's
// id is a function of the name alone.
func (m *Model) nameID(s string) int32 {
	if id, ok := m.names[s]; ok {
		return id
	}
	if m.names == nil {
		m.names = map[string]int32{}
	}
	id := int32(len(m.nameText))
	m.nameText = append(m.nameText, s)
	m.names[s] = id
	return id
}

// scrutID numbers a stuck scrutinee, rendering it once. Terms are interned,
// so the pointer names the term.
func (m *Model) scrutID(t *kernel.Term) int32 {
	if id, ok := m.scruts[t]; ok {
		return id
	}
	if m.scruts == nil {
		m.scruts = map[*kernel.Term]int32{}
	}
	id := int32(len(m.scrutText))
	m.scrutText = append(m.scrutText, t.String())
	m.scruts[t] = id
	return id
}

// forEachApp calls fn for every predicate and every applied function or
// constructor of f, as forEachSymbol does, with the application's
// arguments (a predicate's are its own).
func forEachApp(f *kernel.Form, fn func(sym string, args []*kernel.Term)) {
	app := func(u *kernel.Term) bool {
		if u.IsApp() && u.Fun != "" {
			fn(u.Fun, u.Args)
		}
		return true
	}
	f.EachAtom(true, func(a *kernel.Form) bool {
		if a.Kind == kernel.FPred {
			fn(a.Pred, nil)
		}
		return a.EachTerm(false, func(t *kernel.Term) bool { return t.Subterms(app) })
	})
}

// forEachSymbol calls fn for every applied function, predicate, and
// constructor name in f, in a deterministic walk order, repeats included.
func forEachSymbol(f *kernel.Form, fn func(string)) {
	forEachApp(f, func(sym string, _ []*kernel.Term) { fn(sym) })
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

// goalHead is formHead with a predicate numbered by its name id.
func (m *Model) goalHead(f *kernel.Form) head {
	return formHead(f, func(pred string) head { return headPred + head(m.nameID(pred)) })
}

// conclHead is the head of f's conclusion, under its quantifiers and
// premises: what applying a hypothesis f would prove.
func (m *Model) conclHead(f *kernel.Form) head {
	for f != nil {
		switch f.Kind {
		case kernel.FForall, kernel.FExists:
			f = f.Body
		case kernel.FImpl:
			f = f.R
		case kernel.FNot, kernel.FPred, kernel.FEq, kernel.FAnd, kernel.FOr, kernel.FIff, kernel.FTrue, kernel.FFalse:
			return m.goalHead(f)
		default:
			return headUnknown
		}
	}
	return headUnknown
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

// appendStuckScrutinees appends the scrutinees of up to max stuck matches
// in f, outside quantifiers, that are applications (they print as plain
// terms).
func appendStuckScrutinees(out []*kernel.Term, f *kernel.Form, max int) []*kernel.Term {
	f.EachTerm(false, func(t *kernel.Term) bool {
		t.Subterms(func(u *kernel.Term) bool {
			if len(out) >= max {
				return false
			}
			if u.Match != nil && u.Match.Scrut.IsApp() {
				out = append(out, u.Match.Scrut)
			}
			return true
		})
		return len(out) < max
	})
	return out
}

// formContainsTerm reports whether t occurs in any term position of f.
func formContainsTerm(f *kernel.Form, t *kernel.Term) bool {
	return !f.EachTerm(true, func(u *kernel.Term) bool {
		return u.Subterms(func(x *kernel.Term) bool { return !x.Equal(t) })
	})
}
