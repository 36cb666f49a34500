package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/sexp"
)

// Default client deadlines: a hung or unreachable checkerd must not block a
// client forever. DefaultTimeout generously exceeds the paper's 5 s
// per-tactic budget (the server classifies a slow tactic as Timeout well
// before the transport deadline fires); callers with tighter budgets set
// Client.Timeout directly.
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultTimeout     = 30 * time.Second
)

// Client drives a remote proof-checker session over the wire protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	// Timeout bounds each round-trip (request write plus answer read) and
	// the Quit exchange in Close. Zero disables the deadline.
	Timeout time.Duration
}

// Dial connects to a checker daemon with the default dial timeout and
// round-trip deadline.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.Timeout = DefaultTimeout
	return c, nil
}

// NewClient wraps an established connection. No deadline is set; the caller
// sets Timeout.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close quits the session and closes the connection. A failed Quit write is
// reported alongside the close error, not swallowed: the caller learns the
// session ended without the server's cooperation.
func (c *Client) Close() error {
	derr := c.deadline()
	werr := WriteMsg(c.conn, sexp.L(sexp.Sym("Quit")))
	if werr != nil {
		werr = fmt.Errorf("protocol: quit: %w", werr)
	}
	return errors.Join(derr, werr, c.conn.Close())
}

// deadline arms the per-round-trip deadline when configured. A failed
// SetDeadline would silently void the Timeout policy — the next read could
// block forever — so the error propagates and the round trip aborts.
func (c *Client) deadline() error {
	if c.Timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return fmt.Errorf("protocol: arm deadline: %w", err)
		}
	}
	return nil
}

// errMalformed marks an answer the client cannot decode: a line that is not
// an (Answer k payload) frame, or a payload missing a field the client
// reads. A checkerd is outside input, so every decode site returns it
// instead of trusting the answer's shape.
var errMalformed = errors.New("protocol: malformed answer")

// roundTrip sends a request and returns the answer payload.
func (c *Client) roundTrip(req *sexp.Node) (*sexp.Node, error) {
	if err := c.deadline(); err != nil {
		return nil, err
	}
	if err := WriteMsg(c.conn, req); err != nil {
		return nil, err
	}
	ans, err := ReadMsg(c.r)
	if err != nil {
		return nil, err
	}
	if ans.Head() != "Answer" || len(ans.List) < 3 {
		return nil, fmt.Errorf("%w %s", errMalformed, ans)
	}
	payload := ans.Nth(2)
	if payload.Head() == "Error" {
		msg, err := atomArg(payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("protocol: %s", msg)
	}
	return payload, nil
}

// atomArg returns the atom argument of a (Head "atom" ...) payload, or the
// bare errMalformed when the payload lacks it.
func atomArg(p *sexp.Node) (string, error) {
	arg := p.Nth(1)
	if arg == nil || arg.IsList {
		return "", errMalformed
	}
	return arg.Atom, nil
}

// NewDocLemma opens a proof of a corpus lemma; the server restricts the
// environment to declarations before it.
func (c *Client) NewDocLemma(name string) (stmt string, err error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Lemma"), sexp.Sym(name))))
	if err != nil {
		return "", err
	}
	return atomArg(p)
}

// NewDocStmt opens a proof of an arbitrary statement in surface syntax.
func (c *Client) NewDocStmt(src string) (stmt string, err error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Stmt"), sexp.Str(src))))
	if err != nil {
		return "", err
	}
	return atomArg(p)
}

// ExecResult is the client's decoding of one Exec answer: the wire form
// of a checker.Step, with the state replaced by its key.
type ExecResult struct {
	Status   checker.Status
	NumGoals int
	Proved   bool
	Message  string
	// Key is the state's FingerprintKey after an Applied or Proved answer,
	// carried inline so a comparison with a local state needs no second
	// round trip.
	Key [2]uint64
}

// execPayload decodes an Applied/Proved/Timeout/Rejected answer payload.
func execPayload(p *sexp.Node) (ExecResult, error) {
	switch p.Head() {
	case "Proved":
		key, err := fpOf(p)
		if err != nil {
			return ExecResult{}, err
		}
		return ExecResult{Status: checker.Applied, Proved: true, Key: key}, nil
	case "Applied":
		// The server always encodes (Applied (Goals n) ...); a missing or
		// non-numeric count is a wire fault, not an empty goal set.
		n, err := p.Nth(1).Nth(1).AsInt()
		if err != nil {
			return ExecResult{}, fmt.Errorf("%w %s: %v", errMalformed, p, err)
		}
		key, err := fpOf(p)
		if err != nil {
			return ExecResult{}, err
		}
		return ExecResult{Status: checker.Applied, NumGoals: n, Key: key}, nil
	case "Timeout":
		return ExecResult{Status: checker.Timeout}, nil
	case "Rejected":
		msg, err := atomArg(p)
		if err != nil {
			return ExecResult{}, err
		}
		return ExecResult{Status: checker.Rejected, Message: msg}, nil
	}
	return ExecResult{}, fmt.Errorf("protocol: unexpected payload %s", p)
}

// fpOf decodes the (Fp key) field of an Applied/Proved payload. The server
// always sends one, so a missing or misspelled key is a wire fault.
func fpOf(p *sexp.Node) ([2]uint64, error) {
	for i := 1; i < len(p.List); i++ {
		if child := p.Nth(i); child.Head() == "Fp" {
			s, err := atomArg(child)
			if err != nil {
				return [2]uint64{}, err
			}
			key, ok := parseKey(s)
			if !ok {
				return [2]uint64{}, errMalformed
			}
			return key, nil
		}
	}
	return [2]uint64{}, errMalformed
}

// Exec runs one tactic sentence.
func (c *Client) Exec(sentence string) (ExecResult, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Exec"), sexp.Str(sentence)))
	if err != nil {
		return ExecResult{}, err
	}
	return execPayload(p)
}

// Cancel rolls back to n executed sentences.
func (c *Client) Cancel(n int) error {
	_, err := c.roundTrip(sexp.L(sexp.Sym("Cancel"), sexp.Int(n)))
	return err
}

// Goals returns the pretty-printed current goals.
func (c *Client) Goals() (string, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Query"), sexp.Sym("Goals")))
	if err != nil {
		return "", err
	}
	return atomArg(p)
}

// Script returns the executed sentences joined with spaces.
func (c *Client) Script() (string, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Query"), sexp.Sym("Script")))
	if err != nil {
		return "", err
	}
	return atomArg(p)
}

// Add parses and queues a sentence on the server (STM Add); a bare
// ExecQueue drains the queue.
func (c *Client) Add(sentence string) error {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Add"), sexp.Str(sentence)))
	if err != nil {
		return err
	}
	if p.Head() == "Rejected" {
		msg, err := atomArg(p)
		if err != nil {
			return err
		}
		return fmt.Errorf("protocol: %s", msg)
	}
	return nil
}

// ExecQueue executes the server-side Add queue until empty or failure.
func (c *Client) ExecQueue() (ExecResult, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Exec")))
	if err != nil {
		return ExecResult{}, err
	}
	return execPayload(p)
}
