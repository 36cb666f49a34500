// Package remote implements the wire-protocol execution backend: a
// checker.Backend that drives proof documents on a checkerd server while
// keeping a local mirror of every proof state. The mirror is authoritative
// for search decisions, which makes result tables bit-identical to the
// in-process backend by construction; the wire execution is cross-checked
// step by step, and any divergence is counted as a semantic mismatch.
//
// The robustness ladder has three rungs: a deadline on every request; up to
// three tries per wire exchange, each retry made at once on a fresh session
// (redial, then replay the executed path); and local-only execution for the
// rest of the document once its tries run out.
package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
	"llmfscq/internal/tactic"
)

// attempts is the number of tries one wire exchange gets.
const attempts = 3

// Stats counts the backend's wire activity. The search result tables are
// mirror-driven, so faults never change them; these counters are how a run
// reports what the robustness ladder absorbed.
type Stats struct {
	// WireChecks counts remote executions that were cross-checked against
	// the mirror and agreed.
	WireChecks atomic.Int64
	// Retries counts retried wire exchanges, each on a fresh session: a
	// redial, a NewDoc handshake and a replay of the executed path.
	Retries atomic.Int64
	// Mismatches counts confirmed semantic divergences: the same
	// disagreement reproduced on two fresh sessions. Any nonzero value
	// means the wire checker and the mirror disagree about logic, not
	// about the network.
	Mismatches atomic.Int64
	// Degraded counts documents that gave up on the wire mid-proof.
	Degraded atomic.Int64
	// LocalDocs counts documents opened local-only: an unnamed statement,
	// or a failed dial or NewDoc handshake.
	LocalDocs atomic.Int64
}

// Snapshot renders the counters for logging.
func (s *Stats) Snapshot() string {
	return fmt.Sprintf("wire-checks=%d retries=%d mismatches=%d degraded=%d local-docs=%d",
		s.WireChecks.Load(), s.Retries.Load(), s.Mismatches.Load(),
		s.Degraded.Load(), s.LocalDocs.Load())
}

// Backend is a checker.Backend that executes proofs on a checkerd server,
// mirror-first. Configure the exported fields before first use.
type Backend struct {
	// Addr is the checkerd address.
	Addr string
	// RequestTimeout bounds one wire round trip, the paper's per-tactic
	// budget. An injected stall blocks for twice this, so it surfaces as a
	// deadline error.
	RequestTimeout time.Duration
	// Plan enables deterministic fault injection on every connection; nil
	// leaves the transport clean.
	Plan *faultpoint.Plan

	// Stats is live while the backend runs.
	Stats Stats

	connID atomic.Int64
}

// New builds a remote backend over checkerd at addr.
func New(addr string, requestTimeout time.Duration) *Backend {
	return &Backend{Addr: addr, RequestTimeout: requestTimeout}
}

// dial opens one wire connection, wrapping it with fault injection when a
// plan is set. The protocol client's timeout is the per-request budget.
func (b *Backend) dial() (*protocol.Client, error) {
	conn, err := net.DialTimeout("tcp", b.Addr, protocol.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	if b.Plan != nil {
		conn = &FaultConn{Conn: conn, Inj: b.Plan.Injector(b.connID.Add(1)), StallFor: 2 * b.RequestTimeout}
	}
	cl := protocol.NewClient(conn)
	cl.Timeout = b.RequestTimeout
	return cl, nil
}

// NewDoc opens a proof document. Named corpus lemmas get a wire session
// (the server restricts the environment to declarations before the lemma,
// matching the evaluation's restriction). Unnamed statements, and lemmas
// whose dial or handshake fails, run local-only.
func (b *Backend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	d := &wireDoc{be: b, lemma: lemma, root: tactic.NewState(env, stmt)}
	if lemma == "" {
		b.Stats.LocalDocs.Add(1)
		return d, nil
	}
	if err := d.connect(); err != nil {
		// The wire is down; the document still works, locally.
		b.Stats.LocalDocs.Add(1)
	}
	return d, nil
}

// wireDoc is one proof attempt: a local mirror that is authoritative for
// the search, plus (when connected) a wire session cross-checking every
// execution.
type wireDoc struct {
	be    *Backend
	lemma string
	root  *tactic.State

	mu       sync.Mutex
	cl       *protocol.Client
	wirePath []string // sentences executed on the wire session
	// lastMismatch dedupes divergence confirmation: the same disagreement
	// from two fresh sessions is semantic, not transport noise.
	lastMismatch string
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

// connect (re)dials and opens the lemma document on a fresh session.
// Callers hold d.mu or have exclusive access.
func (d *wireDoc) connect() error {
	if d.cl != nil {
		//lint:ignore errdrop discarding a session already judged broken; the reconnect result is what matters
		_ = d.cl.Close()
		d.cl = nil
	}
	cl, err := d.be.dial()
	if err != nil {
		return err
	}
	if _, err := cl.NewDocLemma(d.lemma); err != nil {
		//lint:ignore errdrop teardown after a failed open; the NewDocLemma error is the one reported
		_ = cl.Close()
		return err
	}
	d.cl = cl
	d.wirePath = nil
	return nil
}

// Try applies sentence at the state reached by path. The mirror result is
// computed first and is what the search sees; the wire execution is a
// cross-check that can only move counters, never the answer.
func (d *wireDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	res := checker.TryTactic(parent, sentence)
	step := checker.Step{Status: res.Status, NumGoals: res.NumGoals, State: res.State, Err: res.Err}
	if res.Status == checker.Applied {
		step.Proved = res.State.Done()
	}
	d.mu.Lock()
	if d.cl != nil {
		d.crossCheck(path, sentence, step)
	}
	d.mu.Unlock()
	return step
}

// mismatchError marks a disagreement between wire and mirror — retried on
// a fresh session before it counts as semantic.
type mismatchError struct{ msg string }

// Error returns the precomputed message: Error implementations are
// reachable from the search hot path (the proof-cache mirror cross-check
// compares checker messages), so the render happens at construction.
func (e *mismatchError) Error() string { return e.msg }

// crossCheck runs one wire execution through the robustness ladder. The
// client's deadline bounds every request; a failed try is retried at once
// on a fresh session, up to attempts tries; a mismatch that reproduces on a
// fresh session counts as semantic; and when the tries run out the document
// degrades to local-only execution. Called with d.mu held and d.cl non-nil.
func (d *wireDoc) crossCheck(path []string, sentence string, local checker.Step) {
	for try := 0; try < attempts; try++ {
		if try > 0 {
			d.be.Stats.Retries.Add(1)
			if err := d.connect(); err != nil {
				continue
			}
		}
		err := d.wireStep(path, sentence, local)
		if err == nil {
			d.lastMismatch = ""
			d.be.Stats.WireChecks.Add(1)
			return
		}
		if mm, ok := err.(*mismatchError); ok {
			if d.lastMismatch == mm.msg {
				// Reproduced on a fresh session: the checkers disagree.
				d.be.Stats.Mismatches.Add(1)
				return
			}
			d.lastMismatch = mm.msg
		}
	}
	// Tries exhausted: degrade this document to local-only execution.
	if d.cl != nil {
		//lint:ignore errdrop degrade path abandons the wire session; local execution takes over regardless
		_ = d.cl.Close()
		d.cl = nil
	}
	d.be.Stats.Degraded.Add(1)
}

// align moves the wire session tip to the state at path: cancel to the
// common prefix, then replay the remainder of the known-good script.
func (d *wireDoc) align(path []string) error {
	p := 0
	for p < len(d.wirePath) && p < len(path) && d.wirePath[p] == path[p] {
		p++
	}
	if len(d.wirePath) > p {
		if err := d.cl.Cancel(p); err != nil {
			return err
		}
		d.wirePath = d.wirePath[:p]
	}
	for _, tac := range path[p:] {
		res, err := d.cl.Exec(tac)
		if err != nil {
			return err
		}
		if res.Status != checker.Applied {
			return &mismatchError{msg: fmt.Sprintf("remote: wire/mirror mismatch: replaying %q: %v (%s)", tac, res.Status, res.Message)}
		}
		d.wirePath = append(d.wirePath, tac)
	}
	return nil
}

// compare checks one wire answer against the mirror's verdict.
func compare(sentence string, res protocol.ExecResult, local checker.Step) error {
	if res.Status != local.Status {
		return &mismatchError{msg: fmt.Sprintf("remote: wire/mirror mismatch: %q: wire %v, mirror %v", sentence, res.Status, local.Status)}
	}
	if local.Status == checker.Applied {
		if res.Proved != local.Proved || res.NumGoals != local.NumGoals {
			return &mismatchError{msg: fmt.Sprintf("remote: wire/mirror mismatch: %q: wire proved=%v goals=%d, mirror proved=%v goals=%d",
				sentence, res.Proved, res.NumGoals, local.Proved, local.NumGoals)}
		}
		if key := local.State.FingerprintKey(); res.Key != key {
			return &mismatchError{msg: fmt.Sprintf("remote: wire/mirror mismatch: %q: wire key %x, mirror key %x", sentence, res.Key, key)}
		}
	}
	return nil
}

// wireStep moves the wire session to the state at path and executes
// sentence there, comparing the answer with the mirror's verdict.
func (d *wireDoc) wireStep(path []string, sentence string, local checker.Step) error {
	if err := d.align(path); err != nil {
		return err
	}
	res, err := d.cl.Exec(sentence)
	if err != nil {
		return err
	}
	if res.Status == checker.Applied {
		d.wirePath = append(d.wirePath, sentence)
	}
	return compare(sentence, res, local)
}
