// Package protocol implements the S-expression wire protocol between the
// search engine and the proof checker — the stand-in for SerAPI on top of
// Coq's STM. Messages are newline-delimited S-expressions, and every request
// gets exactly one answer. As in SerAPI, a sentence is added and executed
// one at a time: each Exec carries one tactic sentence.
//
// Requests:
//
//	(NewDoc (Lemma "name"))        open a proof of a corpus lemma, with the
//	                               environment restricted to declarations
//	                               before it (no self-application)
//	(NewDoc (Stmt "forall ..."))   open a proof of a parsed statement
//	(Exec "tactic.")               execute one tactic sentence at the tip
//	(Add "tactic.")                parse and queue one sentence (STM Add)
//	(Exec)                         execute the queued sentences in order
//	(Cancel n)                     roll back to n executed sentences
//	(Query Goals)                  pretty-printed goals
//	(Query Script)                 executed sentences
//	(Quit)                         close the connection
//
// Answers, where k numbers the answers of a session from 1:
//
//	(Answer k (DocCreated "statement"))
//	(Answer k (Applied (Goals n) (Fp key)))
//	(Answer k (Proved (Fp key)))
//	(Answer k (Rejected "message"))
//	(Answer k (Timeout))
//	(Answer k (Added n)) / (Answer k (Cancelled n))
//	(Answer k (Goals "text")) / (Answer k (Script "text"))
//	(Answer k (Error "message"))
//	(Answer k (Bye))
//
// A line that does not parse, and a request the server does not know, get
// an in-band (Error ...) answer; the session survives both.
//
// Applied/Proved answers carry the state's 128-bit FingerprintKey (see
// internal/tactic) as key, 32 lowercase hex digits with the high word
// first, so a client can compare a wire execution with checker.TryTactic's
// state in the same round trip (TestWireMatchesTryTactic).
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"llmfscq/internal/sexp"
)

// MaxLineBytes bounds one wire message. Longer lines are consumed and
// answered with an error instead of growing the read buffer without bound.
const MaxLineBytes = 1 << 20

// ErrBadMessage marks a line that was read but does not parse as an
// S-expression. The server answers (Error ...) and keeps the session; the
// client treats it as answer corruption.
var ErrBadMessage = errors.New("protocol: bad message")

// ErrLineTooLong marks a line exceeding MaxLineBytes. The oversized line is
// drained from the reader, so the stream stays message-aligned.
var ErrLineTooLong = errors.New("protocol: line exceeds message size limit")

// WriteMsg writes one S-expression message followed by a newline.
func WriteMsg(w io.Writer, n *sexp.Node) error {
	_, err := io.WriteString(w, n.String()+"\n")
	return err
}

// ReadMsg reads one newline-delimited S-expression message, bounding the
// line at MaxLineBytes.
func ReadMsg(r *bufio.Reader) (*sexp.Node, error) {
	return ReadMsgLimit(r, MaxLineBytes)
}

// ReadMsgLimit reads one newline-delimited S-expression message of at most
// max bytes. Parse failures are reported as ErrBadMessage (wrapped),
// oversized lines as ErrLineTooLong; both leave the reader aligned on the
// next line, so the caller can answer with an error and continue. I/O
// errors are returned as-is and end the session.
func ReadMsgLimit(r *bufio.Reader, max int) (*sexp.Node, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		line = append(line, frag...)
		if err == nil {
			break // newline found
		}
		if err == bufio.ErrBufferFull {
			if len(line) > max {
				return nil, drainLine(r)
			}
			continue
		}
		// I/O error. A final unterminated line is still a message (EOF
		// after it); anything else, or a bare EOF, surfaces as-is.
		if err != io.EOF || len(line) == 0 {
			return nil, err
		}
		break
	}
	if len(line) > max {
		return nil, ErrLineTooLong
	}
	node, _, perr := sexp.Parse(string(line))
	if perr != nil {
		return nil, fmt.Errorf("%w %.80q: %v", ErrBadMessage, line, perr)
	}
	return node, nil
}

// drainLine consumes the remainder of an oversized line (bounded per read
// by the bufio buffer) and reports ErrLineTooLong, or the I/O error that
// interrupted the drain.
func drainLine(r *bufio.Reader) error {
	for {
		_, err := r.ReadSlice('\n')
		switch err {
		case nil:
			return ErrLineTooLong
		case bufio.ErrBufferFull:
			continue
		default:
			return err
		}
	}
}

// Answer builds an (Answer k payload) message.
func Answer(k int, payload *sexp.Node) *sexp.Node {
	return sexp.L(sexp.Sym("Answer"), sexp.Int(k), payload)
}

// ErrorAnswer builds an (Answer k (Error "msg")) message.
func ErrorAnswer(k int, msg string) *sexp.Node {
	return Answer(k, sexp.L(sexp.Sym("Error"), sexp.Str(msg)))
}

const hexDigits = "0123456789abcdef"

// formatKey spells a proof-state key as the (Fp key) field carries it.
func formatKey(k [2]uint64) string {
	var b [32]byte
	for i := range b {
		b[i] = hexDigits[k[i/16]>>(60-4*(i%16))&0xf]
	}
	return string(b[:])
}

// parseKey decodes formatKey's spelling; anything else is not a key.
func parseKey(s string) (k [2]uint64, ok bool) {
	if len(s) != 32 {
		return k, false
	}
	for i := 0; i < len(s); i++ {
		d := strings.IndexByte(hexDigits, s[i])
		if d < 0 {
			return [2]uint64{}, false
		}
		k[i/16] = k[i/16]<<4 | uint64(d)
	}
	return k, true
}
