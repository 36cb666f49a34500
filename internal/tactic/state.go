// Package tactic implements the proof-state layer and the tactic
// interpreter: Coq-style goals (typed variable context, named hypotheses,
// conclusion), one table of tactics (verbs, in engine.go) with structural
// induction, inversion, rewriting, auto/eauto backward chaining, omega and
// congruence among them, and the combinators `;`, `||`, `try`, and
// `repeat`.
package tactic

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"llmfscq/internal/kernel"
)

// Precomputed name families for the hot paths: positional fingerprint
// variables ("v0", "v1", ...) and fresh hypothesis names ("H0", "H1", ...).
const smallNames = 256

var (
	vNameTab = func() [smallNames]string {
		var t [smallNames]string
		for i := range t {
			t[i] = "v" + strconv.Itoa(i)
		}
		return t
	}()
	hNameTab = func() [smallNames]string {
		var t [smallNames]string
		for i := range t {
			t[i] = "H" + strconv.Itoa(i)
		}
		return t
	}()
)

func vName(i int) string {
	if i >= 0 && i < smallNames {
		return vNameTab[i]
	}
	return "v" + strconv.Itoa(i)
}

func hName(i int) string {
	if i >= 0 && i < smallNames {
		return hNameTab[i]
	}
	return "H" + strconv.Itoa(i)
}

// Hyp is a named hypothesis.
type Hyp struct {
	Name string
	Form *kernel.Form
}

// Goal is one open proof obligation.
type Goal struct {
	Vars  []kernel.TypedVar
	Hyps  []Hyp
	Concl *kernel.Form

	// fpk memoizes FingerprintKey. Goals are shared between the states of
	// one search, and their keys recur (most calls hit). The memo is
	// atomic, so a goal stays safe to read from several goroutines: it
	// fills from whichever goroutine computes it first, and a racing
	// duplicate computation is benign — both store the same value.
	// Constructors and Clone leave it empty so in-place edits on fresh
	// copies cannot see a stale value.
	fpk atomic.Pointer[[2]uint64]
}

// State is a proof state: an ordered list of open goals (the first is
// focused) against a fixed environment. States are immutable: tactics
// return fresh states sharing untouched goals.
type State struct {
	Env   *kernel.Env
	Goals []*Goal
}

// NewState starts a proof of stmt in env: quantifiers are NOT introduced
// (the script does that), so the single goal has an empty context.
func NewState(env *kernel.Env, stmt *kernel.Form) *State {
	return &State{Env: env, Goals: []*Goal{{Concl: stmt}}}
}

// Done reports whether the proof is complete.
func (s *State) Done() bool { return len(s.Goals) == 0 }

// Clone copies the goal (vars and hyps slices are copied; forms are
// immutable and shared).
func (g *Goal) Clone() *Goal {
	ng := &Goal{
		Vars:  append([]kernel.TypedVar(nil), g.Vars...),
		Hyps:  append([]Hyp(nil), g.Hyps...),
		Concl: g.Concl,
	}
	return ng
}

// cloneRoom is Clone with room for extraVars more variables and extraHyps
// more hypotheses, so a tactic that knows what it adds appends without
// regrowing either slice.
func (g *Goal) cloneRoom(extraVars, extraHyps int) *Goal {
	ng := &Goal{
		Vars:  make([]kernel.TypedVar, len(g.Vars), len(g.Vars)+extraVars),
		Hyps:  make([]Hyp, len(g.Hyps), len(g.Hyps)+extraHyps),
		Concl: g.Concl,
	}
	copy(ng.Vars, g.Vars)
	copy(ng.Hyps, g.Hyps)
	return ng
}

// VarType returns the declared type of a context variable.
func (g *Goal) VarType(name string) (*kernel.Type, bool) {
	for _, v := range g.Vars {
		if v.Name == name {
			return v.Type, true
		}
	}
	return nil, false
}

// HypNamed returns the hypothesis with the given name.
func (g *Goal) HypNamed(name string) (Hyp, bool) {
	for _, h := range g.Hyps {
		if h.Name == name {
			return h, true
		}
	}
	return Hyp{}, false
}

// RemoveHyp returns a copy of the goal without the named hypothesis.
func (g *Goal) RemoveHyp(name string) *Goal {
	ng := g.Clone()
	out := ng.Hyps[:0]
	for _, h := range ng.Hyps {
		if h.Name != name {
			out = append(out, h)
		}
	}
	ng.Hyps = out
	return ng
}

// ReplaceHyp returns a copy of the goal with hypothesis name replaced by f.
func (g *Goal) ReplaceHyp(name string, f *kernel.Form) *Goal {
	ng := g.Clone()
	for i := range ng.Hyps {
		if ng.Hyps[i].Name == name {
			ng.Hyps[i] = Hyp{Name: name, Form: f}
		}
	}
	return ng
}

// usedNames returns all names (vars and hyps) in scope, for freshening:
// the variables, the hypothesis names, and the free names of the
// conclusion (e.g. uninstantiated binder names) and of every hypothesis.
// The free names come from each formula's memo (kernel.Form.FreeNames):
// a goal is asked once or twice, but its hypotheses are inherited by goal
// after goal. The map comes from namesPool; a caller done with it hands
// it back with releaseNames.
func (g *Goal) usedNames() map[string]bool {
	used := namesPool.Get().(map[string]bool)
	for _, v := range g.Vars {
		used[v.Name] = true
	}
	for _, h := range g.Hyps {
		used[h.Name] = true
	}
	for _, v := range g.Concl.FreeNames() {
		used[v] = true
	}
	for _, h := range g.Hyps {
		for _, v := range h.Form.FreeNames() {
			used[v] = true
		}
	}
	return used
}

// namesPool recycles usedNames' maps. Most tactic calls build one, use it
// for a few fresh names and drop it; a cleared map keeps its buckets, so
// a recycled one refills without allocating.
var namesPool = sync.Pool{New: func() any { return map[string]bool{} }}

// releaseNames hands a usedNames map back once nothing reads it. A map
// that is not handed back is left to the collector.
func releaseNames(used map[string]bool) {
	clear(used)
	namesPool.Put(used)
}

// FreshHypName picks an unused hypothesis name (H, H0, H1, ...).
func (g *Goal) FreshHypName(used map[string]bool) string {
	if used == nil {
		used = g.usedNames()
	}
	if !used["H"] {
		used["H"] = true
		return "H"
	}
	for i := 0; ; i++ {
		n := hName(i)
		if !used[n] {
			used[n] = true
			return n
		}
	}
}

// substVar substitutes a context variable by a term everywhere in the goal
// (hyps and conclusion), and drops the variable from the context, leaving
// room for extraVars more variables and extraHyps more hypotheses (see
// cloneRoom). One substitution serves the conclusion and every hypothesis;
// sc is its scratch arena (nil allocates).
func (g *Goal) substVar(x string, t *kernel.Term, extraVars, extraHyps int, sc *kernel.Scratch) *Goal {
	s := kernel.Subst{x: t}
	ng := &Goal{
		Vars:  make([]kernel.TypedVar, 0, len(g.Vars)+extraVars),
		Hyps:  make([]Hyp, len(g.Hyps), len(g.Hyps)+extraHyps),
		Concl: g.Concl.SubstTermS(s, sc),
	}
	for _, v := range g.Vars {
		if v.Name != x {
			ng.Vars = append(ng.Vars, v)
		}
	}
	for i, h := range g.Hyps {
		ng.Hyps[i] = Hyp{Name: h.Name, Form: h.Form.SubstTermS(s, sc)}
	}
	return ng
}

// String renders the goal Coq-style.
func (g *Goal) String() string {
	var b strings.Builder
	for _, v := range g.Vars {
		fmt.Fprintf(&b, "%s : %s\n", v.Name, v.Type)
	}
	for _, h := range g.Hyps {
		fmt.Fprintf(&b, "%s : %s\n", h.Name, h.Form)
	}
	b.WriteString("============================\n")
	b.WriteString(g.Concl.String())
	return b.String()
}

// FingerprintKey is the goal's 128-bit identity for duplicate-state
// pruning: per-hypothesis alpha-insensitive keys (context variables renamed
// positionally by seeding the fingerprint walk, which is equivalent to
// substituting first), sorted, combined with the conclusion key. Goals that
// differ only in hypothesis names, context-variable names or bound-variable
// names share a key.
func (g *Goal) FingerprintKey() [2]uint64 {
	if p := g.fpk.Load(); p != nil {
		return *p
	}
	sp := fpkPool.Get().(*fpkScratch)
	ren := sp.ren
	for i, v := range g.Vars {
		ren[v.Name] = vName(i)
	}
	hyps := sp.hyps[:0]
	for _, h := range g.Hyps {
		hyps = append(hyps, kernel.FingerprintKeySeeded(h.Form, ren))
	}
	slices.SortFunc(hyps, func(a, b [2]uint64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	h := kernel.NewKeyHasher(0x68)
	h.Word(uint64(len(hyps)))
	for _, hk := range hyps {
		h.Pair(hk)
	}
	h.Pair(kernel.FingerprintKeySeeded(g.Concl, ren))
	k := h.Sum()
	g.fpk.Store(&k)
	clear(ren)
	sp.hyps = hyps
	fpkPool.Put(sp)
	return k
}

// fpkScratch recycles FingerprintKey's renaming map and per-hypothesis key
// buffer. Pooled (not per-search) because FingerprintKey is called from
// every layer that dedupes goals; the map goes back empty.
type fpkScratch struct {
	ren  map[string]string
	hyps [][2]uint64
}

var fpkPool = sync.Pool{New: func() any { return &fpkScratch{ren: map[string]string{}} }}

// provedKey is the FingerprintKey of the empty (proved) state.
var provedKey = [2]uint64{0x70726f766564, 0x646576726f7270}

// FingerprintKey is the state's 128-bit identity: the goals' keys in order
// (goal order matters, since the focused goal differs). The search prunes on
// it, and the wire carries it in every Applied or Proved answer. It is
// combined on every call from the goals' memoized keys: a memo of the
// state's own key hit 0 of 102,938 calls in a seed-2025 sweep.
func (s *State) FingerprintKey() [2]uint64 {
	if len(s.Goals) == 0 {
		return provedKey
	}
	h := kernel.NewKeyHasher(0x69)
	h.Word(uint64(len(s.Goals)))
	for _, g := range s.Goals {
		h.Pair(g.FingerprintKey())
	}
	return h.Sum()
}

// String renders the state: the focused goal in full, others as one-liners.
func (s *State) String() string {
	if s.Done() {
		return "No more goals."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d goal(s)\n\n", len(s.Goals))
	b.WriteString(s.Goals[0].String())
	for i := 1; i < len(s.Goals); i++ {
		fmt.Fprintf(&b, "\n\ngoal %d: %s", i+1, s.Goals[i].Concl)
	}
	return b.String()
}

// withGoals returns a new state with the focused goal replaced by subgoals.
// The goal list is sized once (nil when empty).
func (s *State) withGoals(subgoals []*Goal) *State {
	return &State{Env: s.Env, Goals: slices.Concat(subgoals, s.Goals[1:])}
}
