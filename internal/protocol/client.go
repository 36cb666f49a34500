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
// sets Timeout (the remote backend sets its per-request deadline).
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
		return nil, fmt.Errorf("protocol: malformed answer %s", ans)
	}
	payload := ans.Nth(2)
	if payload.Head() == "Error" {
		return nil, fmt.Errorf("protocol: %s", payload.Nth(1).Atom)
	}
	return payload, nil
}

// NewDocLemma opens a proof of a corpus lemma; the server restricts the
// environment to declarations before it.
func (c *Client) NewDocLemma(name string) (stmt string, err error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Lemma"), sexp.Sym(name))))
	if err != nil {
		return "", err
	}
	return p.Nth(1).Atom, nil
}

// NewDocStmt opens a proof of an arbitrary statement in surface syntax.
func (c *Client) NewDocStmt(src string) (stmt string, err error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("NewDoc"), sexp.L(sexp.Sym("Stmt"), sexp.Str(src))))
	if err != nil {
		return "", err
	}
	return p.Nth(1).Atom, nil
}

// ExecResult is the remote analogue of checker.Result.
type ExecResult struct {
	Status   checker.Status
	NumGoals int
	Proved   bool
	Message  string
	// Fingerprint is the canonical state fingerprint after an Applied or
	// Proved answer, carried inline so mirror cross-checks need no second
	// round-trip.
	Fingerprint string
}

// execPayload decodes an Applied/Proved/Timeout/Rejected answer payload.
func execPayload(p *sexp.Node) (ExecResult, error) {
	switch p.Head() {
	case "Proved":
		res := ExecResult{Status: checker.Applied, Proved: true}
		res.Fingerprint = fpOf(p)
		return res, nil
	case "Applied":
		// The server always encodes (Applied (Goals n) ...); a missing or
		// non-numeric count is a wire fault, not an empty goal set.
		n, err := p.Nth(1).Nth(1).AsInt()
		if err != nil {
			return ExecResult{}, fmt.Errorf("protocol: malformed Applied payload %s: %w", p, err)
		}
		res := ExecResult{Status: checker.Applied, NumGoals: n}
		res.Fingerprint = fpOf(p)
		return res, nil
	case "Timeout":
		return ExecResult{Status: checker.Timeout}, nil
	case "Rejected":
		return ExecResult{Status: checker.Rejected, Message: p.Nth(1).Atom}, nil
	}
	return ExecResult{}, fmt.Errorf("protocol: unexpected payload %s", p)
}

// fpOf extracts the (Fp "...") field of an Applied/Proved payload.
func fpOf(p *sexp.Node) string {
	for i := 1; i < len(p.List); i++ {
		if child := p.Nth(i); child.Head() == "Fp" {
			return child.Nth(1).Atom
		}
	}
	return ""
}

// Exec runs one tactic sentence.
func (c *Client) Exec(sentence string) (ExecResult, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Exec"), sexp.Str(sentence)))
	if err != nil {
		return ExecResult{}, err
	}
	return execPayload(p)
}

// ExecBatch runs several sibling sentences in one round trip: the server
// executes each against the current tip, cancelling back after an Applied
// sentence, so the answers are independent probes from the same parent and
// the tip is unchanged afterwards. One ExecResult per sentence, in order.
func (c *Client) ExecBatch(sentences []string) ([]ExecResult, error) {
	req := make([]*sexp.Node, 0, len(sentences)+1)
	req = append(req, sexp.Sym("ExecBatch"))
	for _, s := range sentences {
		req = append(req, sexp.Str(s))
	}
	p, err := c.roundTrip(sexp.L(req...))
	if err != nil {
		return nil, err
	}
	if p.Head() != "Batch" || len(p.List) != len(sentences)+1 {
		return nil, fmt.Errorf("protocol: malformed batch answer %s", p)
	}
	out := make([]ExecResult, len(sentences))
	for i := range sentences {
		res, err := execPayload(p.Nth(i + 1))
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
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
	return p.Nth(1).Atom, nil
}

// Fingerprint returns the canonical state fingerprint.
func (c *Client) Fingerprint() (string, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Query"), sexp.Sym("Fingerprint")))
	if err != nil {
		return "", err
	}
	return p.Nth(1).Atom, nil
}

// Script returns the executed sentences joined with spaces.
func (c *Client) Script() (string, error) {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Query"), sexp.Sym("Script")))
	if err != nil {
		return "", err
	}
	return p.Nth(1).Atom, nil
}

// Add parses and queues a sentence on the server (STM Add); a bare
// ExecQueue drains the queue.
func (c *Client) Add(sentence string) error {
	p, err := c.roundTrip(sexp.L(sexp.Sym("Add"), sexp.Str(sentence)))
	if err != nil {
		return err
	}
	if p.Head() == "Rejected" {
		return fmt.Errorf("protocol: %s", p.Nth(1).Atom)
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
