package prompt

import (
	"llmfscq/internal/corpus"
	"llmfscq/internal/tokenizer"
)

// Cache precomputes, once per (corpus, hint-split), the rendered context
// items of every file under both settings, with per-file prefix token sums
// and import closures. Prompt assembly then reduces to slicing shared
// per-file item arrays instead of re-running the tokenizer on every item
// for every job of the experiment grid. The cache is immutable after
// construction, so one instance is safely shared by all grid workers.
type Cache struct {
	corpus  *corpus.Corpus
	hintSet map[string]bool
	// files[s][f] holds file f's rendered items under setting s, in
	// declaration order; prefix[s][f][i] is the token total of items [0,i).
	files  [2]map[string][]Item
	prefix [2]map[string][]int
	// closure[f] is f's transitive Require Import closure in load order.
	closure map[string][]string
}

// NewCache renders every corpus item under both settings eagerly.
func NewCache(c *corpus.Corpus, hintSet map[string]bool) *Cache {
	cc := &Cache{
		corpus:  c,
		hintSet: hintSet,
		closure: make(map[string][]string, len(c.Files)),
	}
	for s := range cc.files {
		cc.files[s] = make(map[string][]Item, len(c.Files))
		cc.prefix[s] = make(map[string][]int, len(c.Files))
	}
	for _, f := range c.Files {
		cc.closure[f] = c.ImportClosure(f)
		src := c.Items[f]
		for _, s := range []Setting{Vanilla, Hint} {
			items := make([]Item, len(src))
			sums := make([]int, len(src)+1)
			for i, it := range src {
				includeProof := s == Hint && it.Kind == corpus.ItemLemma && hintSet[it.Name]
				items[i] = renderItem(it, includeProof)
				sums[i+1] = sums[i] + items[i].Tokens
			}
			cc.files[s][f] = items
			cc.prefix[s][f] = sums
		}
	}
	return cc
}

// renderItem is the single rendering rule shared by the cached and uncached
// paths: hinted lemmas keep their full source and proof, other lemmas are
// reduced to their statement.
func renderItem(it corpus.Item, includeProof bool) Item {
	text := it.Src
	proof := ""
	if it.Kind == corpus.ItemLemma {
		if includeProof {
			proof = it.Proof
		} else {
			text = it.StmtSrc
		}
	}
	return Item{
		Kind:   it.Kind,
		Name:   it.Name,
		Text:   text,
		Proof:  proof,
		Tokens: tokenizer.Count(text),
	}
}

// segments returns the cached per-file item slices visible to th (the
// target file cut at th.Index) and their token total, without materializing
// a flat copy.
func (cc *Cache) segments(th *corpus.Theorem, s Setting) ([][]Item, int) {
	files := cc.closure[th.File]
	segs := make([][]Item, 0, len(files))
	total := 0
	for _, f := range files {
		items := cc.files[s][f]
		hi := len(items)
		if f == th.File && th.Index < hi {
			hi = th.Index
		}
		segs = append(segs, items[:hi])
		total += cc.prefix[s][f][hi]
	}
	return segs, total
}

// dropCount walks segments from the front, counting the whole items to drop
// until the remainder fits the window (the same truncation rule as Build).
func dropCount(segs [][]Item, total, window int) (int, int) {
	drop := 0
	if window <= 0 {
		return 0, total
	}
	for _, seg := range segs {
		for i := range seg {
			if total <= window {
				return drop, total
			}
			total -= seg[i].Tokens
			drop++
		}
	}
	return drop, total
}

// build assembles the prompt for th from cached items.
func (cc *Cache) build(th *corpus.Theorem, s Setting, window int) *Prompt {
	segs, total := cc.segments(th, s)
	drop, total := dropCount(segs, total, window)
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	items := make([]Item, 0, n-drop)
	skip := drop
	for _, seg := range segs {
		if skip >= len(seg) {
			skip -= len(seg)
			continue
		}
		items = append(items, seg[skip:]...)
		skip = 0
	}
	return &Prompt{Target: th, Items: items, TotalTokens: total, Window: window, Dropped: drop}
}
