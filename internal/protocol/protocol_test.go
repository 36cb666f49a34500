package protocol

import (
	"fmt"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
)

func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestProtocolProofSession(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stmt, err := cl.NewDocLemma("app_nil_r")
	if err != nil {
		t.Fatal(err)
	}
	if stmt == "" {
		t.Fatal("empty statement")
	}
	for _, tac := range []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl."} {
		res, err := cl.Exec(tac)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != checker.Applied {
			t.Fatalf("%q: %v %s", tac, res.Status, res.Message)
		}
	}
	res, err := cl.Exec("reflexivity.")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("final tactic did not prove")
	}
	script, err := cl.Script()
	if err != nil {
		t.Fatal(err)
	}
	if script == "" {
		t.Fatal("empty script")
	}
}

func TestProtocolRejectionAndCancel(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewDocLemma("no_such_lemma"); err == nil {
		t.Fatal("unknown lemma accepted")
	}
	if _, err := cl.NewDocLemma("plus_comm"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec("frobnicate.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != checker.Rejected {
		t.Fatalf("status %v", res.Status)
	}
	goals0, err := cl.Goals()
	if err != nil || goals0 == "" {
		t.Fatalf("goals: %q %v", goals0, err)
	}
	intros, err := cl.Exec("intros.")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Cancel(0); err != nil {
		t.Fatal(err)
	}
	if goals1, err := cl.Goals(); err != nil || goals1 != goals0 {
		t.Fatalf("cancel did not restore the state: %q (%v), want %q", goals1, err, goals0)
	}
	if again, err := cl.Exec("intros."); err != nil || again.Key != intros.Key {
		t.Fatalf("re-executing after cancel: key %x (%v), want %x", again.Key, err, intros.Key)
	}
}

// The server must not let a session apply the lemma it is proving (or any
// later lemma).
func TestProtocolNoSelfApplication(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewDocLemma("plus_comm"); err != nil {
		t.Fatal(err)
	}
	if res, err := cl.Exec("intros."); err != nil || res.Status != checker.Applied {
		t.Fatal(err)
	}
	res, err := cl.Exec("apply plus_comm.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == checker.Applied {
		t.Fatal("self-application allowed")
	}
	res, err = cl.Exec("apply mult_comm.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == checker.Applied {
		t.Fatal("later lemma allowed")
	}
}

func TestProtocolStmtDoc(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewDocStmt("forall (n : nat), n + 0 = n"); err != nil {
		t.Fatal(err)
	}
	for _, tac := range []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."} {
		res, err := cl.Exec(tac)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != checker.Applied {
			t.Fatalf("%q rejected: %s", tac, res.Message)
		}
	}
}

// TestConcurrentSessions checks session isolation: two clients prove
// different lemmas over the same server simultaneously.
func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t)
	done := make(chan error, 2)
	run := func(lemma string, script []string) {
		cl, err := Dial(addr)
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		if _, err := cl.NewDocLemma(lemma); err != nil {
			done <- err
			return
		}
		for _, tac := range script {
			res, err := cl.Exec(tac)
			if err != nil {
				done <- err
				return
			}
			if res.Status != checker.Applied {
				done <- fmt.Errorf("%s: %q rejected: %s", lemma, tac, res.Message)
				return
			}
		}
		done <- nil
	}
	go run("app_nil_r", []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."})
	go run("plus_n_O", []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."})
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestProtocolAddQueue(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewDocLemma("plus_n_O"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("((("); err == nil {
		t.Fatal("Add accepted a parse error")
	}
	for _, tac := range []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."} {
		if err := cl.Add(tac); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.ExecQueue()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("queued proof did not complete: %+v", res)
	}
}
