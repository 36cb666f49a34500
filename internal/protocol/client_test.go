package protocol

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// answerOnce connects a Client to a stand-in checkerd over net.Pipe: it
// reads one request line, writes answer verbatim and hangs up. hangUp
// closes the client end and waits for the stand-in to finish.
func answerOnce(answer string) (c *Client, hangUp func()) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		if _, err := bufio.NewReader(srv).ReadString('\n'); err != nil {
			return
		}
		// The write fails when the client stops reading mid-answer and
		// hangs up; the client's outcome is what the tests judge.
		_, _ = io.WriteString(srv, answer)
	}()
	c = NewClient(cli)
	c.Timeout = 10 * time.Second
	return c, func() {
		cli.Close()
		<-done
	}
}

// clientCalls is every Client method that decodes an answer, by name.
var clientCalls = map[string]func(*Client) error{
	"NewDocLemma": func(c *Client) error { _, err := c.NewDocLemma("app_nil_r"); return err },
	"NewDocStmt":  func(c *Client) error { _, err := c.NewDocStmt("forall (n : nat), n = n"); return err },
	"Exec":        func(c *Client) error { _, err := c.Exec("intros."); return err },
	"ExecQueue":   func(c *Client) error { _, err := c.ExecQueue(); return err },
	"Add":         func(c *Client) error { return c.Add("intros.") },
	"Cancel":      func(c *Client) error { return c.Cancel(0) },
	"Goals":       func(c *Client) error { _, err := c.Goals(); return err },
	"Script":      func(c *Client) error { _, err := c.Script(); return err },
}

// Well-framed answers that lack the field a decode site reads are
// malformed-answer errors, which the caller handles like any wire fault,
// not nil dereferences that take the whole client process down.
func TestClientRejectsShortAnswers(t *testing.T) {
	cases := []struct {
		call   string
		answer string
	}{
		{"Exec", "(Answer 1 (Error))\n"},
		{"Exec", "(Answer 1 (Rejected))\n"},
		{"NewDocLemma", "(Answer 1 (DocCreated))\n"},
		{"Exec", "(Answer 1 (Applied (Goals 1) (Fp)))\n"},
		{"Exec", "(Answer 1 (Proved))\n"},
		{"Exec", "(Answer 1 (Applied (Goals 1) (Fp abc)))\n"},
		{"Exec", "(Answer 1 (Proved (Fp 0123456789ABCDEF0123456789abcdef)))\n"},
	}
	for _, tc := range cases {
		c, hangUp := answerOnce(tc.answer)
		err := clientCalls[tc.call](c)
		hangUp()
		if !errors.Is(err, errMalformed) {
			t.Errorf("%s answered %q: error %v, want a malformed-answer error", tc.call, tc.answer, err)
		}
	}
}

// FuzzClientAnswer feeds one arbitrary answer line to every Client call.
// Each call must return a result or an error, never panic, and it may
// succeed only on a well-framed, non-Error answer. FuzzReadMsg covers the
// framing below the client; this covers the decoders above it.
func FuzzClientAnswer(f *testing.F) {
	f.Add("(Answer 1 (Error))")
	f.Add("(Answer 1 (Rejected))")
	f.Add("(Answer 1 (DocCreated))")
	f.Add("(Answer 1 (Applied (Goals 1) (Fp)))")
	f.Add("(Answer 1 (Applied (Goals 2) (Fp \"abc\")))")
	f.Add("(Answer 1 (Proved (Fp \"abc\")))")
	f.Add("(Answer 1 (Proved (Fp (Nested))))")
	f.Add("(Answer 1 (Rejected \"no such tactic\"))")
	f.Add("(Answer 1 (Timeout))")
	f.Add("(Answer 1 (DocCreated \"forall n, n = n\"))")
	f.Add("(Answer 1 (Goals \"n : nat\"))")
	f.Add("(Answer 1 (Added 1))")
	f.Add("(Answer 1 (Cancelled 0))")
	f.Add("(Answer 1 (Error \"unknown lemma\"))")
	f.Add("(Answer 1 (Error (Nested)))")
	f.Add("(Answer 1)")
	f.Add("(Answer)")
	f.Add("(Answer 1 ())")
	f.Add("(Bye)")
	f.Add("((((")
	f.Add("")
	f.Add("(Answer 1 (Proved (Fp 0123456789abcdef0123456789abcdef)))")
	f.Add("(Answer 1 " + strings.Repeat("(", 1000) + strings.Repeat(")", 1001))
	f.Fuzz(func(t *testing.T, answer string) {
		line := answer
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		msg, perr := ReadMsg(bufio.NewReader(strings.NewReader(line)))
		framed := perr == nil && msg.Head() == "Answer" && len(msg.List) >= 3 && msg.Nth(2).Head() != "Error"
		for name, call := range clientCalls {
			c, hangUp := answerOnce(answer + "\n")
			err := call(c)
			hangUp()
			if err == nil && !framed {
				t.Fatalf("%s accepted answer %q", name, answer)
			}
		}
	})
}
