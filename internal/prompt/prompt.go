// Package prompt builds the proof context handed to the (simulated) model,
// following §3 of the paper: "definitions, theorem statements, and proof
// steps in the current file and imported files up to (but not beyond) the
// active proof goals". The vanilla setting includes definitions and theorem
// statements only; the hint setting additionally includes the human proofs
// of a fixed random half of the theorems. Prompts exceeding the model's
// context window are truncated from the front (the portion closest to the
// active theorem is retained).
package prompt

import (
	"math/rand"
	"sort"
	"strings"

	"llmfscq/internal/corpus"
)

// Setting selects the paper's two prompt configurations.
type Setting int

// Prompt settings.
const (
	Vanilla Setting = iota
	Hint
)

func (s Setting) String() string {
	if s == Hint {
		return "hint"
	}
	return "vanilla"
}

// Item is one context entry visible to the model.
type Item struct {
	Kind corpus.ItemKind
	Name string
	// Text is the entry as it appears in the prompt (statement only, or
	// statement + proof for hinted lemmas).
	Text string
	// Proof is the included human proof script ("" when not included).
	Proof string
	// Tokens caches the token count of Text.
	Tokens int
}

// Prompt is the assembled context for one target theorem.
type Prompt struct {
	Target *corpus.Theorem
	// Items in file order, already truncated to the window. Items[0] is the
	// farthest surviving entry; the target's statement is not included.
	Items []Item
	// TotalTokens counts the whole prompt after truncation.
	TotalTokens int
	// Window is the context window the prompt was fitted to.
	Window int
	// Dropped counts the items removed by truncation.
	Dropped int
}

// HintSplit deterministically selects frac of all theorems as the hint set,
// seeded like the paper's fixed random 50% split ("selected at random and
// remain consistent across all experiments").
func HintSplit(c *corpus.Corpus, frac float64, seed int64) map[string]bool {
	names := make([]string, 0, len(c.Theorems))
	for _, th := range c.Theorems {
		names = append(names, th.Name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	k := int(float64(len(names)) * frac)
	out := make(map[string]bool, k)
	for _, n := range names[:k] {
		out[n] = true
	}
	return out
}

// Builder assembles prompts against a corpus.
type Builder struct {
	Corpus  *corpus.Corpus
	Setting Setting
	// HintSet contains the theorem names whose human proofs may appear in
	// hint-setting prompts.
	HintSet map[string]bool
	// Window is the model's context window in tokens (0 = unlimited).
	Window int
	// Cache, when set, supplies pre-rendered and pre-tokenized items (see
	// NewCache); Build then assembles prompts by slicing instead of
	// re-tokenizing the corpus per job. Optional: with a nil Cache, Build
	// renders from the corpus directly with identical results.
	Cache *Cache
}

// Build assembles the prompt for a target theorem.
func (b *Builder) Build(th *corpus.Theorem) *Prompt {
	if b.Cache != nil {
		return b.Cache.build(th, b.Setting, b.Window)
	}
	var items []Item
	add := func(it corpus.Item, includeProof bool) {
		items = append(items, renderItem(it, includeProof))
	}
	for _, f := range b.Corpus.ImportClosure(th.File) {
		fileItems := b.Corpus.Items[f]
		for idx, it := range fileItems {
			if f == th.File && idx >= th.Index {
				break // nothing at or beyond the active proof goal
			}
			includeProof := b.Setting == Hint && it.Kind == corpus.ItemLemma && b.HintSet[it.Name]
			add(it, includeProof)
		}
	}

	p := &Prompt{Target: th, Window: b.Window}
	total := 0
	for i := range items {
		total += items[i].Tokens
	}
	// Truncate whole items from the front until the prompt fits.
	drop := 0
	if b.Window > 0 {
		for drop < len(items) && total > b.Window {
			total -= items[drop].Tokens
			drop++
		}
	}
	p.Items = items[drop:]
	p.TotalTokens = total
	p.Dropped = drop
	return p
}

// Text renders the prompt as the flat string a real LLM would receive.
func (p *Prompt) Text() string {
	var b strings.Builder
	for _, it := range p.Items {
		b.WriteString(it.Text)
		b.WriteString("\n\n")
	}
	b.WriteString("(* Prove: *)\n")
	if p.Target != nil {
		b.WriteString("Lemma ")
		b.WriteString(p.Target.Name)
		b.WriteString(" : ")
		b.WriteString(p.Target.Stmt.String())
		b.WriteString(".")
	}
	return b.String()
}

// ReducedContext builds the §4.3 hand-crafted prompt for a failed theorem:
// only the target's dependencies (names syntactically reachable from its
// statement and its human proof) are kept. It models the paper's manual
// context-reduction probe.
func (b *Builder) ReducedContext(th *corpus.Theorem) *Prompt {
	needed := map[string]bool{}
	// Names appearing in the statement and the human proof script.
	collect := func(text string) {
		for _, tok := range strings.FieldsFunc(text, func(r rune) bool {
			return !(r == '_' || r == '\'' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9'))
		}) {
			needed[tok] = true
		}
	}
	collect(th.Stmt.String())
	collect(th.Proof)
	full := b.Build(th)
	var kept []Item
	total := 0
	for _, it := range full.Items {
		if it.Kind == corpus.ItemLemma && !needed[it.Name] {
			continue
		}
		kept = append(kept, it)
		total += it.Tokens
	}
	return &Prompt{Target: th, Items: kept, TotalTokens: total, Window: full.Window}
}
