// Package protocol implements the S-expression wire protocol between the
// search engine and the proof checker — the stand-in for SerAPI on top of
// Coq's STM. Messages are newline-delimited S-expressions.
//
// Requests:
//
//	(NewDoc (Lemma "name"))        open a proof of a corpus lemma, with the
//	                               environment restricted to declarations
//	                               before it (no self-application)
//	(NewDoc (Stmt "forall ..."))   open a proof of a parsed statement
//	(Exec "tactic.")               execute one tactic sentence at the tip
//	(ExecBatch "t1." "t2." ...)    execute up to MaxBatch sibling sentences,
//	                               each against the current tip (the server
//	                               cancels back between sentences, so the
//	                               tip is unchanged afterwards)
//	(Cancel n)                     roll back to n executed sentences
//	(Query Goals)                  pretty-printed goals
//	(Query Fingerprint)            canonical state fingerprint
//	(Query Script)                 executed sentences
//	(Quit)                         close the connection
//
// Answers:
//
//	(Answer k (Applied (Goals n) (Fp "fp")))
//	(Answer k (Proved (Fp "fp")))
//	(Answer k (Rejected "message"))
//	(Answer k (Timeout))
//	(Answer k (Batch p1 p2 ...))   one Applied/Proved/Rejected/Timeout
//	                               payload per ExecBatch sentence, in order
//	(Answer k (Goals "text")) / (Answer k (Fingerprint "fp")) / ...
//	(Answer k (Error "message"))
//
// Applied/Proved answers carry the canonical state fingerprint so a client
// can cross-check a remote execution against a local mirror in one
// round-trip; see internal/remote.
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"llmfscq/internal/sexp"
)

// MaxLineBytes bounds one wire message. Longer lines are consumed and
// answered with an error instead of growing the read buffer without bound.
const MaxLineBytes = 1 << 20

// MaxBatch bounds the sentences of one ExecBatch request. The search sends
// at most its expansion width (paper: 8); the cap only has to keep a
// malicious batch from holding the session for an unbounded stretch.
const MaxBatch = 64

// ErrBadMessage marks a line that was read but does not parse as an
// S-expression. The server answers (Error ...) and keeps the session; the
// resilient client treats it as answer corruption.
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
