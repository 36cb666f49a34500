package protocol

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/sexp"
)

// FuzzReadMsg feeds arbitrary bytes through the wire reader. The invariant
// is the error taxonomy: every outcome is a parsed message, ErrBadMessage,
// ErrLineTooLong, or a plain I/O error — never a panic, and never a message
// longer than the limit.
func FuzzReadMsg(f *testing.F) {
	f.Add("(Exec \"intros.\")\n")
	f.Add("(NewDoc (Lemma app_nil_r))\n(Quit)\n")
	f.Add("((((\n")
	f.Add(")\n")
	f.Add("\x00\x00\n")
	f.Add("\"unterminated\n")
	f.Add(strings.Repeat("(", 4096))
	f.Add("(Answer 1 (Applied (Goals 2) (Fp \"abc\")))\n")
	f.Add("(Ping)\n")
	f.Add("(Answer 3 (Pong))\n")
	f.Add(strings.Repeat("(", 1000) + strings.Repeat(")", 1000) + "\n(Quit)\n")
	f.Fuzz(func(t *testing.T, data string) {
		const limit = 1 << 12 // small limit so fuzzing reaches the drain path
		r := bufio.NewReaderSize(strings.NewReader(data), 64)
		for {
			msg, err := ReadMsgLimit(r, limit)
			if err != nil {
				if errors.Is(err, ErrBadMessage) || errors.Is(err, ErrLineTooLong) {
					continue // reader stays line-aligned; keep consuming
				}
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("unexpected error class: %v", err)
			}
			if msg == nil {
				t.Fatal("nil message without error")
			}
			if len(msg.String()) > limit+2 {
				t.Fatalf("message longer than limit: %d bytes", len(msg.String()))
			}
		}
	})
}

// testCorpus is the embedded corpus, loaded once per process.
func testCorpus(t testing.TB) *corpus.Corpus {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzParseRequest drives the request interpreter directly: any parseable
// line must produce exactly one well-formed answer payload, with the
// session object still usable afterwards.
func FuzzParseRequest(f *testing.F) {
	f.Add("(NewDoc (Lemma app_nil_r))")
	f.Add("(NewDoc (Stmt \"forall (n : nat), n + 0 = n\"))")
	f.Add("(Exec \"induction l.\")")
	f.Add("(Exec)")
	f.Add("(Add \"reflexivity.\")")
	f.Add("(Cancel 0)")
	f.Add("(Cancel -3)")
	// ExecBatch is not a request: each shape takes the unknown-request path.
	f.Add("(ExecBatch \"intros.\" \"reflexivity.\")")
	f.Add("(ExecBatch)")
	f.Add("(ExecBatch (Foo))")
	f.Add("(ExecBatch \"intros.\" (Nested (List)))")
	f.Add("(ExecBatch " + strings.Repeat("\"simpl.\" ", 65) + ")")
	f.Add("(Query Goals)")
	f.Add("(Query Fingerprint)") // no longer a query: the unknown-query path
	f.Add("(Query Script)")
	f.Add("(Query Frob)")
	f.Add("(Ping)") // not a request: the unknown-request path
	f.Add("(Ping extra args)")
	f.Add("(Quit)")
	f.Add("(Frobnicate (Deeply (Nested)))")
	f.Add("17")
	f.Add("sym")
	f.Fuzz(func(t *testing.T, line string) {
		msg, _, perr := sexp.Parse(line)
		if perr != nil || msg == nil {
			return // ReadMsg would have answered ErrBadMessage
		}
		sess := &session{corpus: testCorpus(t)}
		// Interpret the fuzzed request twice from both a fresh and an open
		// document, so doc-dependent commands get coverage.
		for round := 0; round < 2; round++ {
			payload, quit := sess.dispatch(msg)
			if payload == nil {
				t.Fatalf("dispatch(%s) returned nil payload", msg)
			}
			// The payload must survive a render/parse round-trip: it is
			// what the server writes to the wire.
			wire := Answer(1, payload).String()
			if _, _, err := sexp.Parse(wire); err != nil {
				t.Fatalf("unparseable answer %q: %v", wire, err)
			}
			if quit && msg.Head() != "Quit" {
				t.Fatalf("non-Quit request %s ended the session", msg)
			}
			if round == 0 {
				sess.dispatch(mustParse(t, "(NewDoc (Lemma app_nil_r))"))
			}
		}
	})
}

func mustParse(t testing.TB, s string) *sexp.Node {
	t.Helper()
	n, _, err := sexp.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
