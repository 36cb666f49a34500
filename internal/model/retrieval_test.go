package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

// envBefore is the environment as it stood before name was declared (the
// restriction a sweep searches under): later lemmas are invisible.
func envBefore(full *kernel.Env, name string) *kernel.Env {
	env := full.Clone()
	for i, n := range full.LemmaOrder {
		if n == name {
			for _, later := range full.LemmaOrder[i:] {
				delete(env.Lemmas, later)
			}
			env.LemmaOrder = full.LemmaOrder[:i:i]
			break
		}
	}
	return env
}

func testTheorems(t *testing.T) (*corpus.Corpus, map[string]bool, []*corpus.Theorem) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	hints := prompt.HintSplit(c, 0.5, 2025)
	var ths []*corpus.Theorem
	for _, th := range c.Theorems {
		if !hints[th.Name] {
			ths = append(ths, th)
		}
	}
	return c, hints, ths
}

// sameSlate compares two Propose results exactly: texts and LogProb bits.
func sameSlate(t *testing.T, what string, a, b []Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d candidates", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Tactic != b[i].Tactic || math.Float64bits(a[i].LogProb) != math.Float64bits(b[i].LogProb) {
			t.Fatalf("%s: candidate %d: %q %v vs %q %v", what, i, a[i].Tactic, a[i].LogProb, b[i].Tactic, b[i].LogProb)
		}
	}
}

// Propose through the corpus-wide shared table must equal Propose on a
// Model with a private table over its prompt's lemmas — whose symbol ids
// differ — for every test theorem's root goal and its introduced goal, in
// both settings, and leave the RNG in the same state. WholeProof, which
// chains Propose along a believed state, must agree too.
func TestSharedLemmaTableMatchesPrivate(t *testing.T) {
	c, hints, ths := testTheorems(t)
	shared := NewLemmaTable(c.Env)
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: GPT4o.ContextWindow}
		for _, th := range ths {
			env := envBefore(c.Env, th.Name)
			pr := b.Build(th)
			ng := BuildNGram(pr)
			what := setting.String() + "/" + th.Name
			withShared := NewWithLemmas(GPT4o, env, shared)
			private := New(GPT4o, env)
			rngS, rngP := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))

			root := tactic.NewState(env, th.Stmt)
			states := []*tactic.State{root}
			var paths [][]string
			paths = append(paths, nil)
			if res := checker.TryTactic(root, "intros."); res.Status == checker.Applied && !res.State.Done() {
				states = append(states, res.State)
				paths = append(paths, []string{"intros."})
			}
			for i, st := range states {
				a := append([]Candidate(nil), withShared.Propose(pr, st, paths[i], ng, rngS)...)
				sameSlate(t, what, a, private.Propose(pr, st, paths[i], ng, rngP))
			}
			ws := withShared.WholeProof(pr, th.Stmt, ng, rngS, 24)
			wp := private.WholeProof(pr, th.Stmt, ng, rngP, 24)
			if !reflect.DeepEqual(ws, wp) {
				t.Fatalf("%s: whole proofs differ:\n%q\n%q", what, ws, wp)
			}
			if rngS.Int63() != rngP.Int63() {
				t.Fatalf("%s: RNG states diverged", what)
			}
			if withShared.lemmas != shared {
				t.Fatalf("%s: the model dropped the shared table", what)
			}
		}
	}
}

// A shared table that analyzed another statement under a visible lemma's
// name must not leak into the slate: the model falls back to a private
// table.
func TestSharedLemmaTableStatementMismatch(t *testing.T) {
	c, hints, _ := testTheorems(t)
	th, _ := c.TheoremNamed("app_assoc")
	b := prompt.Builder{Corpus: c, Setting: prompt.Hint, HintSet: hints, Window: GPT4o.ContextWindow}
	pr := b.Build(th)
	ng := BuildNGram(pr)
	env := envBefore(c.Env, th.Name)
	// Swap the statement of the visible lemma nearest the target for the
	// target's own.
	names := pr.LemmaNames()
	swapped := names[len(names)-1]
	env.Lemmas[swapped] = &kernel.Lemma{Name: swapped, Stmt: th.Stmt}

	st := tactic.NewState(env, th.Stmt)
	shared := NewLemmaTable(c.Env)
	m := NewWithLemmas(GPT4o, env, shared)
	a := append([]Candidate(nil), m.Propose(pr, st, nil, ng, rand.New(rand.NewSource(3)))...)
	sameSlate(t, "mismatched table", a, New(GPT4o, env).Propose(pr, st, nil, ng, rand.New(rand.NewSource(3))))
	if m.lemmas == shared {
		t.Fatal("the model kept a table that analyzed another statement")
	}
}

// The continuations and pairs precomputed at mining time must equal the
// sort-on-demand results for every predecessor of every n-gram mined from
// the corpus's hinted prompts.
func TestNGramPrecomputedContinuations(t *testing.T) {
	c, hints, ths := testTheorems(t)
	mined := 0
	for _, window := range []int{GPT4o.ContextWindow, GeminiFlash.ContextWindow} {
		b := prompt.Builder{Corpus: c, Setting: prompt.Hint, HintSet: hints, Window: window}
		for _, th := range ths {
			ng := BuildNGram(b.Build(th))
			if len(ng.next) != len(ng.bi) {
				t.Fatalf("%s: %d precomputed predecessors, %d mined", th.Name, len(ng.next), len(ng.bi))
			}
			for prev := range ng.bi {
				nx := ng.nextOf(prev)
				if want := ng.Continuations(prev, proposeConts); !reflect.DeepEqual(nx.conts, want) {
					t.Fatalf("%s after %q: continuations %q, want %q", th.Name, prev, nx.conts, want)
				}
				if want := ng.ContinuationPairs(prev, proposeConts); !reflect.DeepEqual(nx.pairs, want) {
					t.Fatalf("%s after %q: pairs %v, want %v", th.Name, prev, nx.pairs, want)
				}
				mined++
			}
		}
	}
	if mined == 0 {
		t.Fatal("no predecessors mined")
	}
}

// refRetrieval is the retrieval pass written directly from lemma
// statements and strings, re-analyzing every visible lemma per query: the
// specification the table, view and symbol marks must reproduce.
func refRetrieval(m *Model, p *prompt.Prompt, g *tactic.Goal, ng *NGram) []refCand {
	symsOf := func(f *kernel.Form) map[string]bool {
		out := map[string]bool{}
		forEachSymbol(f, func(s string) { out[s] = true })
		return out
	}
	goalSyms := symsOf(g.Concl)
	hypSyms := map[string]bool{}
	for _, h := range g.Hyps {
		for s := range symsOf(h.Form) {
			hypSyms[s] = true
		}
	}
	gh := goalHead(g.Concl)
	var out []refCand
	n := len(p.Items)
	for i, it := range p.Items {
		if it.Kind != corpus.ItemLemma {
			continue
		}
		lem, ok := m.Env.Lemmas[it.Name]
		if !ok {
			continue
		}
		quality := m.Profile.RetrievalSkill * math.Exp2(-float64(n-1-i)/m.Profile.DistractionHalfLife)
		usage := 0.0
		if ng != nil {
			usage = math.Log1p(ng.NameUsage(it.Name))
		}
		_, matrix := lem.Stmt.StripForalls()
		prems, concl := matrix.StripImpls()
		syms := orderedSymbols(lem.Stmt)
		overlap := 0.0
		for _, s := range syms {
			if goalSyms[s] {
				overlap += 1.0
			} else if hypSyms[s] {
				overlap += 0.4
			}
		}
		if len(syms) > 0 {
			overlap /= math.Sqrt(float64(len(syms)))
		}
		rel := (overlap + 1.6*usage) * quality
		if concl.Kind == kernel.FEq {
			lhs := ""
			if concl.T1.IsApp() {
				lhs = concl.T1.Fun
			}
			w := rel
			if lhs != "" && goalSyms[lhs] {
				w += 1.3 * quality
			}
			out = append(out, refCand{text: "rewrite " + it.Name + ".", r: w})
			out = append(out, refCand{text: "rewrite <- " + it.Name + ".", r: 0.4 * w})
			if lhs != "" && hypSyms[lhs] {
				for _, h := range g.Hyps {
					if symsOf(h.Form)[lhs] {
						out = append(out, refCand{text: "rewrite " + it.Name + " in " + h.Name + ".", r: 0.8 * w})
						break
					}
				}
			}
		}
		if goalHead(concl) == gh {
			w := rel + 1.1*quality
			out = append(out, refCand{text: "apply " + it.Name + ".", r: w})
			if len(prems) > 0 {
				out = append(out, refCand{text: "eapply " + it.Name + ".", r: 0.7 * w})
			}
		} else if overlap > 0.5 {
			out = append(out, refCand{text: "apply " + it.Name + ".", r: 0.3 * rel})
		}
		if len(prems) > 0 {
			if ph := goalHead(stripQuant(prems[0])); ph != "?" {
				for _, h := range g.Hyps {
					if goalHead(h.Form) == ph {
						out = append(out, refCand{text: "apply " + it.Name + " in " + h.Name + ".", r: 0.5 * rel})
						break
					}
				}
			}
		}
	}
	return out
}

// Retrieval through the shared table must emit exactly the reference's
// candidates — same order, same dedup keys, bit-equal relevance — on the
// goals of every test theorem's whole-proof roll-out, where hypotheses
// accumulate, in both settings.
func TestRetrievalMatchesReference(t *testing.T) {
	c, hints, ths := testTheorems(t)
	shared := NewLemmaTable(c.Env)
	goals := 0
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: GPT4o.ContextWindow}
		for _, th := range ths {
			env := envBefore(c.Env, th.Name)
			pr := b.Build(th)
			ng := BuildNGram(pr)
			m := NewWithLemmas(GPT4o, env, shared)
			st := tactic.NewState(env, th.Stmt)
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < 12 && !st.Done(); step++ {
				g := st.Goals[0]
				got := m.retrieval(nil, pr, g, ng)
				want := refRetrieval(m, pr, g, ng)
				if len(got) != len(want) {
					t.Fatalf("%s/%s step %d: %d candidates, want %d", setting, th.Name, step, len(got), len(want))
				}
				for i := range got {
					key := m.keyText(got[i].id)
					if key != dedupKey(want[i].text) || math.Float64bits(got[i].r) != math.Float64bits(want[i].r) {
						t.Fatalf("%s/%s step %d: candidate %d is %q r=%v, want %q r=%v",
							setting, th.Name, step, i, key, got[i].r, want[i].text, want[i].r)
					}
				}
				goals++
				advanced := false
				for _, cand := range m.Propose(pr, st, nil, ng, rng) {
					if res := checker.TryTactic(st, cand.Tactic); res.Status == checker.Applied {
						st, advanced = res.State, true
						break
					}
				}
				if !advanced {
					break
				}
			}
		}
	}
	if goals == 0 {
		t.Fatal("no goals checked")
	}
}
