package remote

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
	"llmfscq/internal/sexp"
)

// startCheckerd runs an in-process checkerd on a loopback port.
func startCheckerd(t testing.TB) (env *kernel.Env, addr string) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(c)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return c.Env, addr
}

// proofScripts are the conformance workloads: full proofs plus deliberate
// rejections, so every answer shape crosses the wire.
var proofScripts = []struct {
	lemma  string
	script []string
}{
	{"app_nil_r", []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}},
	{"plus_n_O", []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}},
	{"plus_n_O", []string{"induction n.", "rewrite nope.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}},
}

// TestWireAnswerBytesMatchLocalSession asserts wire-level conformance at
// the strongest granularity: the raw answer lines the server emits are
// byte-identical to lines rendered from an in-process checker.Session
// executing the same script.
func TestWireAnswerBytesMatchLocalSession(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, ps := range proofScripts {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		roundTripRaw := func(req *sexp.Node) string {
			t.Helper()
			if err := protocol.WriteMsg(conn, req); err != nil {
				t.Fatal(err)
			}
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			return line
		}

		sess, err := checker.NewSessionNamed(env, ps.lemma)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTripRaw(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Lemma"), sexp.Sym(ps.lemma))))
		want := protocol.Answer(1, sexp.L(sexp.Sym("DocCreated"), sexp.Str(sess.Stmt().String()))).String() + "\n"
		if got != want {
			t.Fatalf("%s NewDoc:\n got %q\nwant %q", ps.lemma, got, want)
		}
		for i, tac := range ps.script {
			got := roundTripRaw(sexp.L(sexp.Sym("Exec"), sexp.Str(tac)))
			res := sess.Exec(tac)
			key := sess.Tip().FingerprintKey()
			fp := sexp.L(sexp.Sym("Fp"), sexp.Sym(fmt.Sprintf("%016x%016x", key[0], key[1])))
			var payload *sexp.Node
			switch {
			case res.Status == checker.Applied && sess.Proved():
				payload = sexp.L(sexp.Sym("Proved"), fp)
			case res.Status == checker.Applied:
				payload = sexp.L(sexp.Sym("Applied"), sexp.L(sexp.Sym("Goals"), sexp.Int(res.NumGoals)), fp)
			case res.Status == checker.Timeout:
				payload = sexp.L(sexp.Sym("Timeout"))
			default:
				payload = sexp.L(sexp.Sym("Rejected"), sexp.Str(res.Err.Error()))
			}
			want := protocol.Answer(i+2, payload).String() + "\n"
			if got != want {
				t.Fatalf("%s step %d (%q):\n got %q\nwant %q", ps.lemma, i, tac, got, want)
			}
		}
		conn.Close()
	}
}

// renderStep renders one step as a line, the unit the conformance tests
// compare across backends.
func renderStep(step checker.Step) string {
	line := fmt.Sprintf("%v goals=%d proved=%v", step.Status, step.NumGoals, step.Proved)
	if step.Status == checker.Applied {
		return line + fmt.Sprintf(" key=%x", step.State.FingerprintKey())
	}
	return line + " err=" + step.Err.Error()
}

// runScript drives one document in a best-first shape: at every node it
// probes a sibling candidate ("simpl.") before the scripted tactic, which
// exercises the remote session's cancel-and-replay alignment, then follows
// the scripted tactic only where it applies. Every step is rendered by
// renderStep.
func runScript(t testing.TB, be checker.Backend, env *kernel.Env, lemma string, script []string) []string {
	t.Helper()
	lem, ok := env.Lemmas[lemma]
	if !ok {
		t.Fatalf("unknown lemma %s", lemma)
	}
	doc, err := be.NewDoc(env, lem.Stmt, lemma)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	parent := doc.Root()
	var path []string
	var lines []string
	for _, tac := range script {
		if !parent.Done() {
			lines = append(lines, renderStep(doc.Try(parent, path, "simpl.")))
		}
		step := doc.Try(parent, path, tac)
		lines = append(lines, renderStep(step))
		if step.Status == checker.Applied {
			parent = step.State
			path = append(path, tac)
		}
	}
	return lines
}

// TestBackendConformance: the remote backend's step stream is
// byte-identical to the in-process backend's, and every wire execution
// cross-checked clean (zero mismatches over a fully exercised wire).
func TestBackendConformance(t *testing.T) {
	env, addr := startCheckerd(t)
	for _, ps := range proofScripts {
		local := runScript(t, checker.InProcess{}, env, ps.lemma, ps.script)

		be := New(addr, protocol.DefaultTimeout)
		remote := runScript(t, be, env, ps.lemma, ps.script)
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("%s probe %d:\nremote %s\nlocal  %s", ps.lemma, i, remote[i], local[i])
			}
		}
		if got, want := be.Stats.WireChecks.Load(), int64(len(local)); got != want {
			t.Fatalf("%s: %d wire checks, want %d (wire not exercised)", ps.lemma, got, want)
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("%s: %d wire/mirror mismatches", ps.lemma, n)
		}
		if n := be.Stats.Failures.Load(); n != 0 {
			t.Fatalf("%s: %d wire failures on a clean network", ps.lemma, n)
		}
	}
}

// startPeer listens on a loopback port and serves accepted connections one
// at a time with serve, which must return once the client closes its end.
// Cleanup closes the listener and waits for the serving goroutine.
func startPeer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestLostWire: against a peer that hangs up on accept, one that answers
// the handshake and then hangs up, and one that never answers, every
// document counts one failure, makes no wire check, and returns the
// in-process steps.
func TestLostWire(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	peers := []struct {
		name    string
		timeout time.Duration
		serve   func(net.Conn)
	}{
		{"hangs up on accept", protocol.DefaultTimeout, func(conn net.Conn) { conn.Close() }},
		{"hangs up after the handshake", protocol.DefaultTimeout, func(conn net.Conn) {
			defer conn.Close()
			if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
				// A failed write looks to the client like the hang-up
				// that follows it.
				created := protocol.Answer(1, sexp.L(sexp.Sym("DocCreated"), sexp.Str("stmt")))
				_ = protocol.WriteMsg(conn, created)
			}
		}},
		// Every request to this peer waits out its whole deadline, so only
		// it gets a short one.
		{"never answers", 100 * time.Millisecond, func(conn net.Conn) {
			_, _ = io.Copy(io.Discard, conn)
			conn.Close()
		}},
	}
	for _, p := range peers {
		be := New(startPeer(t, p.serve), p.timeout)
		for _, ps := range proofScripts {
			want := runScript(t, checker.InProcess{}, c.Env, ps.lemma, ps.script)
			got := runScript(t, be, c.Env, ps.lemma, ps.script)
			if !slices.Equal(got, want) {
				t.Fatalf("peer that %s, %s: steps differ from in-process:\n got %q\nwant %q", p.name, ps.lemma, got, want)
			}
		}
		if n := be.Stats.Failures.Load(); n != int64(len(proofScripts)) {
			t.Errorf("peer that %s: %d failures over %d documents", p.name, n, len(proofScripts))
		}
		if checks, mm := be.Stats.WireChecks.Load(), be.Stats.Mismatches.Load(); checks != 0 || mm != 0 {
			t.Errorf("peer that %s: %d wire checks and %d mismatches on a lost wire", p.name, checks, mm)
		}
	}
}
