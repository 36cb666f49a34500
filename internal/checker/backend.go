package checker

import (
	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// Step is the outcome of trying one tactic sentence against a backend —
// the backend-neutral analogue of Result. Backends never surface transport
// errors here: a remote backend retries on a fresh session or degrades to
// local execution, so a Step always reflects a checker verdict.
type Step struct {
	Status   Status
	NumGoals int
	// Proved reports whether the resulting state closes the proof.
	Proved bool
	// State is the successor proof state when Status == Applied. It is
	// always populated: backends that execute remotely keep a local mirror
	// precisely so the search can keep expanding structurally.
	State *tactic.State
	// Err holds the checker's message for Rejected/Timeout.
	Err error
}

// Doc is one open proof attempt against a backend. The search drives it
// with Try: stateless with respect to the document tip, so a best-first
// search can probe candidates from any explored node in any order.
type Doc interface {
	// Try applies sentence to the proof state reached by path (the tactic
	// sentences from the root), where parent is the search's structural
	// state at that node. Implementations may use parent directly
	// (in-process) or replay path on a wire session (remote).
	Try(parent *tactic.State, path []string, sentence string) Step
	// Root returns the initial proof state of the document.
	Root() *tactic.State
	// Close releases any resources held by the document.
	Close() error
}

// ScratchTryer is implemented by documents that can execute a Try with a
// caller-supplied kernel.Scratch — the per-search buffer arena of the
// allocation-free search inner loop. Only the in-process document implements
// it (remote documents execute across a wire, where a local scratch has
// nothing to recycle); the search engine type-asserts and falls back to
// plain Try.
type ScratchTryer interface {
	// TryScratch is Try threading sc through the tactic interpreter.
	// sc must not be shared between concurrent calls.
	TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) Step
}

// BatchDoc is implemented by documents for which executing several sibling
// sentences against one parent state in a single backend exchange is
// cheaper than one Try per sentence (the remote backend's ExecBatch: one
// round trip instead of n). The search engine type-asserts for it and
// hands a whole expansion over at once when present. In-process documents
// deliberately do not implement it — there is no per-call transport cost
// to amortize, and advertising it would force eager execution where the
// serial search is lazy.
type BatchDoc interface {
	Doc
	// TryBatch is Try for each sentence against the same parent; the
	// returned slice has one Step per sentence, in order. Like Try, it
	// never surfaces transport errors.
	TryBatch(parent *tactic.State, path []string, sentences []string) []Step
}

// Backend creates proof documents. The zero value of InProcess is the
// default backend; internal/remote provides one backed by checkerd.
type Backend interface {
	// NewDoc opens a proof of stmt in env. lemma is the corpus name of the
	// statement when it has one ("" otherwise); backends that restrict the
	// environment server-side key on it.
	NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (Doc, error)
	// Close releases backend-wide resources (connection pools).
	Close() error
}

// InProcess is the direct, in-memory backend: Try is exactly TryTactic.
type InProcess struct{}

// NewDoc opens an in-process document.
func (InProcess) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (Doc, error) {
	return &inProcessDoc{root: tactic.NewState(env, stmt)}, nil
}

// Close is a no-op for the in-process backend.
func (InProcess) Close() error { return nil }

type inProcessDoc struct {
	root *tactic.State
}

func (d *inProcessDoc) Root() *tactic.State { return d.root }

func (d *inProcessDoc) Try(parent *tactic.State, path []string, sentence string) Step {
	return d.TryScratch(parent, path, sentence, nil)
}

func (d *inProcessDoc) TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) Step {
	res := TryTacticS(parent, sentence, sc)
	st := Step{Status: res.Status, NumGoals: res.NumGoals, State: res.State, Err: res.Err}
	if res.Status == Applied {
		st.Proved = res.State.Done()
	}
	return st
}

func (d *inProcessDoc) Close() error { return nil }
