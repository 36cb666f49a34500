package checker

import (
	"testing"

	"llmfscq/internal/corpus"
)

func TestSessionLifecycle(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSessionNamed(c.Env, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	if s.Proved() {
		t.Fatal("proved before any tactic")
	}
	steps := []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}
	for _, tac := range steps {
		res := s.Exec(tac)
		if res.Status != Applied {
			t.Fatalf("%q: %v (%v)", tac, res.Status, res.Err)
		}
	}
	if !s.Proved() {
		t.Fatalf("not proved after script; goals:\n%s", s.Goals())
	}
	if got := len(s.Script()); got != len(steps) {
		t.Fatalf("script length %d", got)
	}
}

func TestSessionCancel(t *testing.T) {
	c, _ := corpus.Default()
	s, err := NewSessionNamed(c.Env, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	fp0 := s.Tip().FingerprintKey()
	if res := s.Exec("induction l."); res.Status != Applied {
		t.Fatal(res.Err)
	}
	if res := s.Exec("reflexivity."); res.Status != Applied {
		t.Fatal(res.Err)
	}
	if err := s.Cancel(0); err != nil {
		t.Fatal(err)
	}
	if s.Tip().FingerprintKey() != fp0 {
		t.Fatal("cancel did not restore the initial state")
	}
	if err := s.Cancel(5); err == nil {
		t.Fatal("cancel out of range accepted")
	}
}

func TestTryTacticClassification(t *testing.T) {
	c, _ := corpus.Default()
	s, _ := NewSessionNamed(c.Env, "app_nil_r")
	if res := TryTactic(s.Tip(), "frobnicate."); res.Status != Rejected {
		t.Fatalf("unknown tactic: %v", res.Status)
	}
	if res := TryTactic(s.Tip(), "reflexivity."); res.Status != Rejected {
		t.Fatalf("wrong tactic: %v", res.Status)
	}
	if res := TryTactic(s.Tip(), "intros."); res.Status != Applied || res.NumGoals != 1 {
		t.Fatalf("intros: %v goals=%d", res.Status, res.NumGoals)
	}
}

func TestRestrictedSessionCannotSelfApply(t *testing.T) {
	c, _ := corpus.Default()
	s, err := NewSessionNamed(c.Env, "plus_comm")
	if err != nil {
		t.Fatal(err)
	}
	// NewSessionNamed uses the full env; self-application guard lives in
	// the eval runner and the protocol server. Here the lemma is present,
	// so document the baseline behavior.
	res := s.Exec("intros. apply plus_comm.")
	_ = res // either way is fine at this layer
}

func TestAddQueueExec(t *testing.T) {
	c, _ := corpus.Default()
	s, err := NewSessionNamed(c.Env, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	// Parse errors surface at Add time.
	if err := s.Add("(((."); err == nil {
		t.Fatal("Add accepted a parse error")
	}
	for _, tac := range []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."} {
		if err := s.Add(tac); err != nil {
			t.Fatal(err)
		}
	}
	if s.Queued() != 5 {
		t.Fatalf("queued %d", s.Queued())
	}
	if res := s.ExecQueued(); res.Status != Applied {
		t.Fatalf("queue execution failed: %v", res.Err)
	}
	if !s.Proved() {
		t.Fatal("not proved after queued script")
	}
	// Semantic errors surface at Exec time, stopping the queue.
	s2, _ := NewSessionNamed(c.Env, "plus_n_O")
	_ = s2.Add("induction n.")
	_ = s2.Add("rewrite IHn.") // wrong in the first subgoal
	res := s2.ExecQueued()
	if res.Status != Rejected {
		t.Fatalf("expected rejection, got %v", res.Status)
	}
	if s2.Len() != 1 {
		t.Fatalf("executed %d sentences before failure", s2.Len())
	}
}

// ExecQueued must drain into the same backing array instead of re-slicing
// forward: repeated Add/ExecQueued cycles on one session previously pinned
// every executed sentence and grew the array without bound.
func TestExecQueuedReusesBackingArray(t *testing.T) {
	c, _ := corpus.Default()
	s, err := NewSessionNamed(c.Env, "app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	script := []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}
	for i, tac := range script {
		if err := s.Add(tac); err != nil {
			t.Fatal(err)
		}
		if res := s.ExecQueued(); res.Status != Applied {
			t.Fatalf("step %d: %v", i, res.Err)
		}
		if s.Queued() != 0 {
			t.Fatalf("step %d: %d sentences left queued", i, s.Queued())
		}
		if cap(s.queue) > len(script) {
			t.Fatalf("step %d: queue capacity grew to %d", i, cap(s.queue))
		}
	}
	if !s.Proved() {
		t.Fatal("not proved")
	}

	// On failure, the unexecuted remainder must survive at the queue front.
	s2, _ := NewSessionNamed(c.Env, "plus_n_O")
	_ = s2.Add("induction n.")
	_ = s2.Add("rewrite IHn.") // wrong in the first subgoal
	_ = s2.Add("reflexivity.")
	if res := s2.ExecQueued(); res.Status != Rejected {
		t.Fatalf("expected rejection, got %v", res.Status)
	}
	if s2.Queued() != 1 {
		t.Fatalf("remainder lost: %d queued", s2.Queued())
	}
	if s2.queue[0] != "reflexivity." {
		t.Fatalf("wrong remainder: %q", s2.queue[0])
	}
}
