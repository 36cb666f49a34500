// Package checker provides the proof-checking service the search engine
// talks to — the stand-in for Coq's state-transition-machine interface plus
// SerAPI. A Session is a linear document of executed tactic sentences with
// full undo (Cancel), mirroring STM's Add/Exec/Cancel; TryTactic is the pure
// one-shot form used by the tree search.
package checker

import (
	"errors"
	"fmt"

	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// Status classifies the outcome of executing one tactic sentence, matching
// the paper's invalid-tactic taxonomy: rejected by the checker, timed out,
// or applied (duplicate-state detection is the search's job; the checker
// exposes fingerprints for it).
type Status int

// Tactic execution statuses.
const (
	Applied Status = iota
	Rejected
	Timeout
)

func (s Status) String() string {
	switch s {
	case Applied:
		return "applied"
	case Rejected:
		return "rejected"
	case Timeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Step is the outcome of executing one tactic sentence: from TryTactic, a
// Session, or a backend's Doc. Backends never surface transport errors
// here: a remote backend takes every verdict from its local mirror and
// only counts what the wire does, so a Step always reflects a checker
// verdict.
type Step struct {
	Status Status
	// State is the successor proof state when Status == Applied. Backends
	// always populate it: those that execute remotely keep a local mirror
	// precisely so the search can keep expanding structurally.
	State *tactic.State
	// NumGoals is the number of open goals after application.
	NumGoals int
	// Proved reports whether State closes the proof.
	Proved bool
	// Err holds the checker's message for Rejected/Timeout.
	Err error
}

// TryTactic applies one tactic sentence to a proof state, classifying
// failures. It never mutates the input state.
func TryTactic(state *tactic.State, sentence string) Step {
	return TryTacticS(state, sentence, nil)
}

// TryTacticS is TryTactic with a per-search scratch arena for the tactic
// interpreter's transient buffers (sc may be nil). The returned states never
// alias scratch memory, so a search reuses one Scratch for every Try.
func TryTacticS(state *tactic.State, sentence string, sc *kernel.Scratch) Step {
	ns, err := tactic.ApplySentenceS(state, sentence, sc)
	if err != nil {
		if tactic.IsTimeout(err) {
			return Step{Status: Timeout, Err: err}
		}
		return Step{Status: Rejected, Err: err}
	}
	return Step{Status: Applied, State: ns, NumGoals: len(ns.Goals), Proved: ns.Done()}
}

// Session is a linear proof document: an initial goal plus the executed
// sentences, with STM-style Add (parse and queue), Exec, and Cancel. It
// mirrors the state-transition-machine interface the paper's checker is
// built on.
type Session struct {
	env    *kernel.Env     // environment the proof runs in
	stmt   *kernel.Form    // the statement under proof
	states []*tactic.State // states[i] = state after i sentences
	script []string
	queue  []string // sentences Added but not yet Executed
}

// Env returns the session's environment.
func (s *Session) Env() *kernel.Env { return s.env }

// Stmt returns the statement under proof.
func (s *Session) Stmt() *kernel.Form { return s.stmt }

// NewSession opens a proof of stmt.
func NewSession(env *kernel.Env, stmt *kernel.Form) *Session {
	return &Session{
		env:    env,
		stmt:   stmt,
		states: []*tactic.State{tactic.NewState(env, stmt)},
	}
}

// NewSessionNamed opens a proof of a named lemma already present in env.
func NewSessionNamed(env *kernel.Env, name string) (*Session, error) {
	l, ok := env.Lemmas[name]
	if !ok {
		return nil, fmt.Errorf("checker: unknown lemma %q", name)
	}
	return NewSession(env, l.Stmt), nil
}

// Add parses a sentence and queues it for execution, mirroring STM's Add:
// parse errors surface immediately, semantic errors only at Exec time.
func (s *Session) Add(sentence string) error {
	if _, err := tactic.ParseOne(sentence); err != nil {
		return err
	}
	s.queue = append(s.queue, sentence)
	return nil
}

// Queued reports the number of added-but-unexecuted sentences.
func (s *Session) Queued() int { return len(s.queue) }

// ExecQueued executes the queued sentences in order, stopping at the first
// failure (whose Step it returns; the unexecuted remainder stays queued).
// The queue's backing array is reused across Add/ExecQueued cycles: draining
// shifts survivors to the front and clears the tail instead of re-slicing
// forward, which would pin every executed sentence for the session's
// lifetime and grow the array without bound.
func (s *Session) ExecQueued() Step {
	tip := s.Tip()
	res := Step{Status: Applied, State: tip, NumGoals: len(tip.Goals), Proved: tip.Done()}
	for i := 0; i < len(s.queue); i++ {
		res = s.Exec(s.queue[i])
		if res.Status != Applied {
			n := copy(s.queue, s.queue[i+1:])
			clear(s.queue[n:])
			s.queue = s.queue[:n]
			return res
		}
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	return res
}

// Exec runs one sentence at the tip of the document.
func (s *Session) Exec(sentence string) Step {
	res := TryTactic(s.Tip(), sentence)
	if res.Status == Applied {
		s.states = append(s.states, res.State)
		s.script = append(s.script, sentence)
	}
	return res
}

// Tip returns the current proof state.
func (s *Session) Tip() *tactic.State { return s.states[len(s.states)-1] }

// Len returns the number of executed sentences.
func (s *Session) Len() int { return len(s.script) }

// Cancel rolls the document back so that only the first n sentences remain.
func (s *Session) Cancel(n int) error {
	if n < 0 || n > len(s.script) {
		return errors.New("checker: cancel out of range")
	}
	s.states = s.states[:n+1]
	s.script = s.script[:n]
	return nil
}

// Proved reports whether the proof is complete.
func (s *Session) Proved() bool { return s.Tip().Done() }

// Script returns the executed sentences.
func (s *Session) Script() []string { return append([]string(nil), s.script...) }

// Goals renders the current goals for display.
func (s *Session) Goals() string { return s.Tip().String() }
