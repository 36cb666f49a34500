package checker

import (
	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// Doc is one open proof attempt against a backend. The search drives it
// with Try: stateless with respect to the document tip, so a best-first
// search can probe candidates from any explored node in any order.
type Doc interface {
	// Try applies sentence to the proof state reached by path (the tactic
	// sentences from the root), where parent is the search's structural
	// state at that node. The in-process document uses parent directly;
	// path names the same state for a wrapper that wants it.
	Try(parent *tactic.State, path []string, sentence string) Step
	// Root returns the initial proof state of the document.
	Root() *tactic.State
	// Close releases any resources held by the document.
	Close() error
}

// ScratchTryer is implemented by documents that can execute a Try with a
// caller-supplied kernel.Scratch — the per-search buffer arena of the
// allocation-free search inner loop. The in-process document implements it;
// the search engine type-asserts and falls back to plain Try for a document
// that does not.
type ScratchTryer interface {
	// TryScratch is Try threading sc through the tactic interpreter.
	// sc must not be shared between concurrent calls.
	TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) Step
}

// BatchDoc is a retired extension point: documents that executed several
// sibling sentences in one backend exchange.
//
// Deprecated: nothing implements or consults BatchDoc. The search executes
// candidates one Try at a time, and the wire sends one sentence per round
// trip. The declaration stays only because the benchmark harness in
// sweepbench/ names it.
type BatchDoc interface {
	Doc
	// TryBatch was Try for each sentence against the same parent.
	TryBatch(parent *tactic.State, path []string, sentences []string) []Step
}

// Backend creates proof documents. The zero value of InProcess is the
// default backend, and the only one outside tests; the benchmark harness in
// sweepbench/ wraps it to time each Try.
type Backend interface {
	// NewDoc opens a proof of stmt in env. lemma is the corpus name of the
	// statement when it has one ("" otherwise), for a wrapper that reports
	// per unit.
	NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (Doc, error)
}

// InProcess is the direct, in-memory backend: Try is exactly TryTactic.
type InProcess struct{}

// NewDoc opens an in-process document.
func (InProcess) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (Doc, error) {
	return &inProcessDoc{root: tactic.NewState(env, stmt)}, nil
}

type inProcessDoc struct {
	root *tactic.State
}

func (d *inProcessDoc) Root() *tactic.State { return d.root }

func (d *inProcessDoc) Try(parent *tactic.State, path []string, sentence string) Step {
	return d.TryScratch(parent, path, sentence, nil)
}

func (d *inProcessDoc) TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) Step {
	return TryTacticS(parent, sentence, sc)
}

func (d *inProcessDoc) Close() error { return nil }
