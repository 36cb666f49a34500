package protocol

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/sexp"
)

// rawSession dials the server and speaks raw lines, for tests that need to
// send byte sequences no Client would produce.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawSession{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (s *rawSession) send(line string) {
	s.t.Helper()
	if _, err := s.conn.Write([]byte(line)); err != nil {
		s.t.Fatalf("write %q: %v", line, err)
	}
}

func (s *rawSession) answer() *sexp.Node {
	s.t.Helper()
	msg, err := ReadMsg(s.r)
	if err != nil {
		s.t.Fatalf("read answer: %v", err)
	}
	return msg
}

// Malformed input must be answered in-band with (Answer k (Error ...)) —
// the session survives — rather than by dropping the connection, which a
// client would misread as a transport fault.
func TestMalformedInputAnsweredNotDropped(t *testing.T) {
	_, addr := startServer(t)
	cases := []struct {
		name string
		line string
	}{
		{"truncated sexp", "(Exec \"intros.\"\n"},
		{"unterminated string", "(Exec \"intros\n"},
		{"bare close paren", ")\n"},
		{"empty line", "\n"},
		{"NUL bytes", "\x00\x00(Quit)\x00\n"},
		{"oversized line", "(Exec \"" + strings.Repeat("a", MaxLineBytes+1024) + "\")\n"},
		{"unknown command", "(Frobnicate 1)\n"},
		{"bad cancel arg", "(Cancel x)\n"},
		{"removed fingerprint query", "(Query Fingerprint)\n"},
		// The longest line the reader accepts, all '(': the parser's
		// nesting bound rejects it without growing the stack.
		{"1 MiB of open parens", strings.Repeat("(", MaxLineBytes-1) + "\n"},
	}
	s := rawDial(t, addr)
	// One open doc so command-shaped errors exercise dispatch, not just the
	// no-document guard.
	s.send("(NewDoc (Lemma app_nil_r))\n")
	if ans := s.answer(); ans.Nth(2).Head() != "DocCreated" {
		t.Fatalf("NewDoc answer %s", ans)
	}
	for i, tc := range cases {
		s.send(tc.line)
		ans := s.answer()
		if ans.Head() != "Answer" {
			t.Fatalf("%s: not an answer: %s", tc.name, ans)
		}
		payload := ans.Nth(2)
		if payload.Head() != "Error" {
			// NUL bytes parse as a weird atom; anything non-Error must at
			// least be a well-formed answer. All current cases answer Error.
			t.Errorf("%s: payload %s, want (Error ...)", tc.name, payload)
		}
		if k, _ := ans.Nth(1).AsInt(); k != i+2 {
			t.Errorf("%s: answer seq %d, want %d (session must survive)", tc.name, k, i+2)
		}
	}
	// The session is still fully functional after every malformed line.
	s.send("(Exec \"induction l.\")\n")
	if ans := s.answer(); ans.Nth(2).Head() != "Applied" {
		t.Fatalf("session broken after malformed input: %s", ans)
	}
}

// ExecBatch was a request once and is no more: a client still sending it, in
// any shape, gets one in-band (Error ...) answer, no sentence of the line
// runs, and the session stays alive.
func TestExecBatchMalformedAnsweredInBand(t *testing.T) {
	_, addr := startServer(t)
	s := rawDial(t, addr)

	s.send("(ExecBatch \"intros.\")\n")
	if p := s.answer().Nth(2); p.Head() != "Error" {
		t.Fatalf("no-document batch: %s, want (Error ...)", p)
	}

	s.send("(NewDoc (Lemma app_nil_r))\n")
	if ans := s.answer(); ans.Nth(2).Head() != "DocCreated" {
		t.Fatalf("NewDoc answer %s", ans)
	}
	cases := []struct {
		name string
		line string
	}{
		{"well-formed batch", "(ExecBatch \"induction l.\" \"intros.\")\n"},
		{"empty batch", "(ExecBatch)\n"},
		{"list argument", "(ExecBatch (Foo))\n"},
		{"list among strings", "(ExecBatch \"induction l.\" (Nested))\n"},
		{"long batch", "(ExecBatch " + strings.Repeat("\"simpl.\" ", 65) + ")\n"},
	}
	for _, tc := range cases {
		s.send(tc.line)
		if p := s.answer().Nth(2); p.Head() != "Error" {
			t.Errorf("%s: payload %s, want (Error ...)", tc.name, p)
		}
		// No sentence ran, so the script is still empty.
		s.send("(Query Script)\n")
		if p := s.answer().Nth(2); p.Head() != "Script" || p.Nth(1).Atom != "" {
			t.Errorf("%s: script after batch line: %s", tc.name, p)
		}
	}
	s.send("(Exec \"induction l.\")\n")
	if p := s.answer().Nth(2); p.Head() != "Applied" {
		t.Fatalf("session broken after batch lines: %s", p)
	}
}

// Applied/Proved answers must carry the key of the server session's state,
// through a render/parse round trip, so clients can cross-check in one round
// trip.
func TestExecAnswersCarryFingerprint(t *testing.T) {
	sess := &session{corpus: testCorpus(t)}
	if p, _ := sess.dispatch(mustParse(t, "(NewDoc (Lemma app_nil_r))")); p.Head() != "DocCreated" {
		t.Fatalf("NewDoc answer %s", p)
	}
	var res ExecResult
	for _, tac := range []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."} {
		p, _ := sess.dispatch(sexp.L(sexp.Sym("Exec"), sexp.Str(tac)))
		var err error
		if res, err = execPayload(mustParse(t, p.String())); err != nil {
			t.Fatalf("%q: %v", tac, err)
		}
		if res.Status != checker.Applied {
			t.Fatalf("%q: %v %s", tac, res.Status, res.Message)
		}
		if want := sess.doc.Tip().FingerprintKey(); res.Key != want {
			t.Fatalf("%q: inline key %x, session key %x", tac, res.Key, want)
		}
	}
	if !res.Proved {
		t.Fatalf("final answer %+v is not Proved", res)
	}
}

// A Stmt document must be a closed statement, as corpus.Load and Coq
// require. One with free variables is answered (Error ...) naming them and
// opens no document, so no tactic can then "prove" it; a closed statement
// still opens one.
func TestNewDocStmtRejectsFreeVariables(t *testing.T) {
	sess := &session{corpus: testCorpus(t)}
	newDoc := func(src string) *sexp.Node {
		p, _ := sess.dispatch(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Stmt"), sexp.Str(src))))
		return p
	}
	for _, tc := range []struct{ src, msg string }{
		{"x + 0 = x", "unbound identifiers [x]"},
		{"forall (n : nat), n + m = m + n", "unbound identifiers [m]"},
		{"a + b = b + a", "unbound identifiers [a b]"},
	} {
		if p := newDoc(tc.src); p.Head() != "Error" || p.Nth(1).Atom != tc.msg {
			t.Errorf("%q: answer %s, want (Error %q)", tc.src, p, tc.msg)
		}
		if p, _ := sess.dispatch(mustParse(t, `(Exec "auto.")`)); p.Head() != "Error" {
			t.Errorf("%q: Exec after the rejected statement answered %s, want (Error ...)", tc.src, p)
		}
	}
	if p := newDoc("forall (n : nat), n + 0 = n"); p.Head() != "DocCreated" {
		t.Fatalf("closed statement: answer %s, want (DocCreated ...)", p)
	}
}

// MaxConns bounds concurrent sessions: with a full house the next dial
// parks in the backlog until a session quits, and every session still
// completes.
func TestMaxConnsBoundsAndDrains(t *testing.T) {
	srv := &Server{Corpus: testCorpus(t), MaxConns: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	hold := make([]*Client, 2)
	for i := range hold {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.NewDocLemma("plus_n_O"); err != nil {
			t.Fatal(err)
		}
		hold[i] = cl
	}
	// Third session: the dial succeeds (backlog) but no answer arrives
	// until a slot frees.
	third, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	third.Timeout = 300 * time.Millisecond
	if _, err := third.NewDocLemma("plus_n_O"); err == nil {
		t.Fatal("third session served while both slots busy")
	}
	hold[0].Close()
	hold[1].Close()
	third.Timeout = 10 * time.Second
	if _, err := third.NewDocLemma("plus_n_O"); err != nil {
		t.Fatalf("queued session not served after slots freed: %v", err)
	}
}

// A -race workout: many concurrent sessions over one server, mixing Exec,
// Cancel, queries, malformed lines, and abrupt disconnects.
func TestConcurrentSessionsRace(t *testing.T) {
	_, addr := startServer(t)
	lemmas := []struct {
		name   string
		script []string
	}{
		{"app_nil_r", []string{"induction l.", "reflexivity.", "simpl.", "rewrite IHl.", "reflexivity."}},
		{"plus_n_O", []string{"induction n.", "reflexivity.", "simpl.", "rewrite IHn.", "reflexivity."}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lem := lemmas[w%len(lemmas)]
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.NewDocLemma(lem.name); err != nil {
				errs <- err
				return
			}
			for round := 0; round < 3; round++ {
				for _, tac := range lem.script {
					res, err := cl.Exec(tac)
					if err != nil {
						errs <- err
						return
					}
					if res.Status != checker.Applied {
						errs <- fmt.Errorf("%s: %q rejected: %s", lem.name, tac, res.Message)
						return
					}
				}
				if err := cl.Cancel(0); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Goals(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Two hostile sessions: garbage then hangup, racing the real ones.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			_, _ = conn.Write([]byte("((((\n\x00junk\n"))
			_ = conn.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
