// Package remote implements the wire-protocol execution backend: a
// checker.Backend that drives proof documents on a checkerd server while
// keeping a local mirror of every proof state. The mirror is authoritative
// for search decisions, which makes result tables bit-identical to the
// in-process backend by construction; the wire execution is cross-checked
// step by step, and any divergence counts as a mismatch.
//
// Every request carries a deadline. A failed dial or handshake, a transport
// error or a malformed answer drops the document's session and counts once
// as a failure; the document then runs on the mirror alone. Nothing is
// retried.
package remote

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
	"llmfscq/internal/tactic"
)

// Stats counts the backend's wire activity. The search result tables are
// mirror-driven, so a lost wire never changes them; these counters are how
// a caller sees what the wire checked.
type Stats struct {
	// WireChecks counts remote executions that were cross-checked against
	// the mirror and agreed.
	WireChecks atomic.Int64
	// Mismatches counts remote executions that disagreed with the mirror:
	// the wire checker and the mirror disagree about logic, not about the
	// network.
	Mismatches atomic.Int64
	// Failures counts documents that lost their wire session: a failed
	// dial or handshake, a transport error or a malformed answer. Each
	// document counts at most once.
	Failures atomic.Int64
}

// Backend is a checker.Backend that executes proofs on a checkerd server,
// mirror-first. Configure the exported fields before first use.
type Backend struct {
	// Addr is the checkerd address.
	Addr string
	// RequestTimeout bounds one wire round trip, the paper's per-tactic
	// budget.
	RequestTimeout time.Duration

	// Stats is live while the backend runs.
	Stats Stats
}

// New builds a remote backend over checkerd at addr.
func New(addr string, requestTimeout time.Duration) *Backend {
	return &Backend{Addr: addr, RequestTimeout: requestTimeout}
}

// open dials checkerd and opens the lemma's document on a fresh session.
// The protocol client's timeout is the per-request budget.
func (b *Backend) open(lemma string) (*protocol.Client, error) {
	conn, err := net.DialTimeout("tcp", b.Addr, protocol.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	cl := protocol.NewClient(conn)
	cl.Timeout = b.RequestTimeout
	if _, err := cl.NewDocLemma(lemma); err != nil {
		return nil, errors.Join(err, cl.Close())
	}
	return cl, nil
}

// NewDoc opens a proof document. Named corpus lemmas get a wire session
// (the server restricts the environment to declarations before the lemma,
// matching the evaluation's restriction). Unnamed statements run on the
// mirror alone, and so do lemmas whose dial or handshake fails.
func (b *Backend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	d := &wireDoc{be: b, root: tactic.NewState(env, stmt)}
	if lemma == "" {
		return d, nil
	}
	cl, err := b.open(lemma)
	if err != nil {
		b.Stats.Failures.Add(1)
		return d, nil
	}
	d.cl = cl
	return d, nil
}

// wireDoc is one proof attempt: a local mirror that is authoritative for
// the search, plus (while connected) a wire session cross-checking every
// execution.
type wireDoc struct {
	be   *Backend
	root *tactic.State

	mu       sync.Mutex
	cl       *protocol.Client
	wirePath []string // sentences executed on the wire session
}

func (d *wireDoc) Root() *tactic.State { return d.root }

// Close quits the wire session.
func (d *wireDoc) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cl == nil {
		return nil
	}
	err := d.cl.Close()
	d.cl = nil
	return err
}

// Try applies sentence at the state reached by path. The mirror result is
// computed first and is what the search sees; the wire execution is a
// cross-check that can only move counters, never the answer.
func (d *wireDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	step := checker.TryTactic(parent, sentence)
	d.mu.Lock()
	if d.cl != nil {
		d.crossCheck(path, sentence, step)
	}
	d.mu.Unlock()
	return step
}

// crossCheck executes sentence on the wire at path and counts whether the
// answer agrees with the mirror's step. Any error drops the session and
// counts the document's one failure. Called with d.mu held and d.cl
// non-nil.
func (d *wireDoc) crossCheck(path []string, sentence string, local checker.Step) {
	agree, err := d.wireStep(path, sentence, local)
	switch {
	case err != nil:
		//lint:ignore errdrop the session is already lost; the failure is counted and the mirror carries on
		d.cl.Close()
		d.cl = nil
		d.be.Stats.Failures.Add(1)
	case agree:
		d.be.Stats.WireChecks.Add(1)
	default:
		d.be.Stats.Mismatches.Add(1)
	}
}

// wireStep moves the wire session to the state at path and executes
// sentence there, reporting whether every answer agreed with the mirror.
func (d *wireDoc) wireStep(path []string, sentence string, local checker.Step) (bool, error) {
	if ok, err := d.align(path); !ok || err != nil {
		return false, err
	}
	res, err := d.cl.Exec(sentence)
	if err != nil {
		return false, err
	}
	if res.Status == checker.Applied {
		d.wirePath = append(d.wirePath, sentence)
	}
	return agrees(res, local), nil
}

// align moves the wire session tip to the state at path: cancel to the
// common prefix, then replay the remainder of the mirror's script. It
// reports false when the wire rejects a sentence the mirror applied.
func (d *wireDoc) align(path []string) (bool, error) {
	p := 0
	for p < len(d.wirePath) && p < len(path) && d.wirePath[p] == path[p] {
		p++
	}
	if len(d.wirePath) > p {
		if err := d.cl.Cancel(p); err != nil {
			return false, err
		}
		d.wirePath = d.wirePath[:p]
	}
	for _, tac := range path[p:] {
		res, err := d.cl.Exec(tac)
		if err != nil {
			return false, err
		}
		if res.Status != checker.Applied {
			return false, nil
		}
		d.wirePath = append(d.wirePath, tac)
	}
	return true, nil
}

// agrees reports whether one wire answer matches the mirror's verdict:
// status, and for an applied step the proved flag, goal count and state
// identity.
func agrees(res protocol.ExecResult, local checker.Step) bool {
	if res.Status != local.Status {
		return false
	}
	if local.Status != checker.Applied {
		return true
	}
	return res.Proved == local.Proved && res.NumGoals == local.NumGoals &&
		res.Key == local.State.FingerprintKey()
}
