package model

import (
	"sort"
	"strings"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/tactic"
)

// TestTacticTableMatchesCallers holds the tactic table to the verbs that
// reach it: the verbs of the corpus proofs and the verbs the model can
// emit, which are structural's candidates over every goal reached while
// replaying each corpus proof (read back as text through their ids),
// retrieval's rewrite, apply and eapply, and the junk list. (The n-gram
// part only copies hint proofs, which are corpus proofs.) The table must
// hold exactly these, so a verb nothing sends cannot linger in it and a
// verb a caller sends cannot go missing. Junk must stay junk, except for
// two sentences that are real tactics and are pinned here: "trivial." is
// auto at depth 1, and "simpl in *." is a form simpl implements.
func TestTacticTableMatchesCallers(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	m := NewWithLemmas(GPT4o, c.Env, NewLemmaTable(c.Env))
	m.resetIDs()
	sent := map[string]bool{}
	send := func(verb string) { sent[verb] = true }
	for _, file := range c.Files {
		for _, it := range c.Items[file] {
			if it.Kind != corpus.ItemLemma {
				continue
			}
			script, err := tactic.ParseScript(it.Proof)
			if err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
			st := tactic.NewState(c.EnvBefore(it.Name), it.Stmt)
			for _, e := range script {
				exprVerbs(e, send)
				for _, g := range st.Goals {
					m.resolveGoal(g)
					for _, sc := range m.structural(nil, g) {
						sentenceVerbs(t, m.keyText(sc.id)+".", send)
					}
				}
				if st, err = tactic.Apply(st, e); err != nil {
					t.Fatalf("%s: replaying %s: %v", it.Name, tactic.ExprString(e), err)
				}
			}
		}
	}
	for _, text := range []string{"rewrite L.", "apply L.", "eapply L."} {
		sentenceVerbs(t, text, send)
	}
	realJunk := map[string]bool{"trivial": true, "simpl": true}
	for _, text := range junkTactics {
		sentenceVerbs(t, text, func(verb string) {
			if _, known := tactic.Lookup(verb); known != realJunk[verb] {
				t.Errorf("junk %q: verb %s in the tactic table = %v, want %v", text, verb, known, realJunk[verb])
			}
			if realJunk[verb] {
				send(verb)
			}
		})
	}

	table := map[string]bool{}
	for _, verb := range tactic.Verbs() {
		table[verb] = true
		if !sent[verb] {
			t.Errorf("tactic table has %s, which no corpus proof uses and the model cannot emit", verb)
		}
	}
	var missing []string
	for verb := range sent {
		if !table[verb] {
			missing = append(missing, verb)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("tactic table lacks %s, which a corpus proof or the model sends", strings.Join(missing, ", "))
	}

	th, ok := c.TheoremNamed("andb_true_l")
	if !ok {
		t.Fatal("no theorem andb_true_l")
	}
	st, err := tactic.ApplySentence(tactic.NewState(c.EnvBefore(th.Name), th.Stmt), "intros.")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"trivial.", "simpl in *."} {
		if _, err := tactic.ApplySentence(st, text); err != nil {
			t.Errorf("junk sentence %q no longer applies: %v", text, err)
		}
	}
}

// sentenceVerbs parses one tactic sentence and calls f on its verbs.
func sentenceVerbs(t *testing.T, text string, f func(verb string)) {
	t.Helper()
	e, err := tactic.ParseOne(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	exprVerbs(e, f)
}

// exprVerbs calls f on the verb of every tactic call in e, in syntax order.
func exprVerbs(e tactic.Expr, f func(verb string)) {
	switch t := e.(type) {
	case tactic.Seq:
		exprVerbs(t.First, f)
		exprVerbs(t.Then, f)
	case tactic.Dispatch:
		exprVerbs(t.First, f)
		for _, b := range t.Branches {
			exprVerbs(b, f)
		}
	case tactic.Alt:
		exprVerbs(t.A, f)
		exprVerbs(t.B, f)
	case tactic.Try:
		exprVerbs(t.T, f)
	case tactic.Repeat:
		exprVerbs(t.T, f)
	case tactic.Call:
		f(t.Name)
	}
}
