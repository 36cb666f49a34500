package checker

import (
	"testing"

	"llmfscq/internal/corpus"
)

// The in-process backend's Try must agree with TryTactic and with a
// Session replaying the same script.
func TestInProcessBackendMatchesSession(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	lem, ok := c.Env.Lemmas["app_nil_r"]
	if !ok {
		t.Fatal("corpus lost app_nil_r")
	}
	var be InProcess
	doc, err := be.NewDoc(c.Env, lem.Stmt, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()

	sess := NewSession(c.Env, lem.Stmt)
	if doc.Root().FingerprintKey() != sess.Tip().FingerprintKey() {
		t.Fatal("backend root state differs from session root")
	}
	script := []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}
	state := doc.Root()
	var path []string
	for i, tac := range script {
		step := doc.Try(state, path, tac)
		res := sess.Exec(tac)
		if step.Status != res.Status {
			t.Fatalf("step %d: backend %v, session %v", i, step.Status, res.Status)
		}
		if step.Status != Applied {
			t.Fatalf("step %d: %q not applied: %v", i, tac, step.Err)
		}
		if step.State.FingerprintKey() != sess.Tip().FingerprintKey() {
			t.Fatalf("step %d: fingerprint keys diverge", i)
		}
		if step.NumGoals != res.NumGoals {
			t.Fatalf("step %d: goals %d vs %d", i, step.NumGoals, res.NumGoals)
		}
		state = step.State
		path = append(path, tac)
	}
	if !sess.Proved() {
		t.Fatal("session did not finish the proof")
	}
	last := doc.Try(doc.Root(), nil, "induction l.")
	if last.Proved {
		t.Fatal("first step cannot prove app_nil_r")
	}
	step := doc.Try(state, path, "reflexivity.")
	if step.Status != Rejected {
		t.Fatalf("tactic on a closed proof: %v, want rejected", step.Status)
	}
}

// Rejected and proved steps must be classified with Proved set correctly.
func TestInProcessBackendStepClassification(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	lem := c.Env.Lemmas["plus_n_O"]
	var be InProcess
	doc, err := be.NewDoc(c.Env, lem.Stmt, "plus_n_O")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	if step := doc.Try(doc.Root(), nil, "rewrite nope."); step.Status != Rejected || step.Err == nil {
		t.Fatalf("bogus rewrite: %+v", step)
	}
	state := doc.Root()
	var path []string
	for _, tac := range []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn."} {
		step := doc.Try(state, path, tac)
		if step.Status != Applied || step.Proved {
			t.Fatalf("%q: %+v", tac, step)
		}
		state, path = step.State, append(path, tac)
	}
	step := doc.Try(state, path, "reflexivity.")
	if !step.Proved || step.NumGoals != 0 {
		t.Fatalf("final step: %+v, want proved with 0 goals", step)
	}
}
