package prompt

import (
	"fmt"
	"strings"
	"testing"

	"llmfscq/internal/corpus"
)

// lemmaVisible reports whether a lemma statement named name survived
// truncation.
func lemmaVisible(p *Prompt, name string) bool {
	for _, it := range p.Items {
		if it.Kind == corpus.ItemLemma && it.Name == name {
			return true
		}
	}
	return false
}

func loadCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHintSplitDeterministic(t *testing.T) {
	c := loadCorpus(t)
	a := HintSplit(c, 0.5, 42)
	b := HintSplit(c, 0.5, 42)
	if len(a) != len(b) {
		t.Fatal("split size differs")
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("splits differ at %s", k)
		}
	}
	want := len(c.Theorems) / 2
	if len(a) != want {
		t.Fatalf("split size %d, want %d", len(a), want)
	}
	diff := HintSplit(c, 0.5, 43)
	same := 0
	for k := range a {
		if diff[k] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical splits")
	}
}

func TestVanillaPromptHasNoProofs(t *testing.T) {
	c := loadCorpus(t)
	hints := HintSplit(c, 0.5, 1)
	b := Builder{Corpus: c, Setting: Vanilla, HintSet: hints}
	th, _ := c.TheoremNamed("app_assoc")
	p := b.Build(th)
	for _, it := range p.Items {
		if it.Proof != "" {
			t.Fatalf("vanilla prompt contains proof of %s", it.Name)
		}
		if it.Kind == corpus.ItemLemma && strings.Contains(it.Text, "Proof.") {
			t.Fatalf("vanilla lemma text contains proof: %s", it.Name)
		}
	}
}

func TestHintPromptContainsHintProofsOnly(t *testing.T) {
	c := loadCorpus(t)
	hints := HintSplit(c, 0.5, 1)
	b := Builder{Corpus: c, Setting: Hint, HintSet: hints}
	th, _ := c.TheoremNamed("tree_name_distinct_head")
	p := b.Build(th)
	sawHintProof := false
	for _, it := range p.Items {
		if it.Proof != "" {
			if !hints[it.Name] {
				t.Fatalf("non-hint proof leaked: %s", it.Name)
			}
			sawHintProof = true
		}
	}
	if !sawHintProof {
		t.Fatal("no hint proofs in a hint prompt")
	}
}

func TestPromptStopsAtTarget(t *testing.T) {
	c := loadCorpus(t)
	b := Builder{Corpus: c, Setting: Vanilla, HintSet: map[string]bool{}}
	// A mid-file theorem must not see later lemmas of its own file, and
	// never itself.
	th, _ := c.TheoremNamed("in_or_app")
	p := b.Build(th)
	for _, it := range p.Items {
		if it.Name == "in_or_app" {
			t.Fatal("prompt contains the target itself")
		}
		if it.Name == "in_app_or" || it.Name == "selN_updN_ne" {
			t.Fatalf("prompt contains later lemma %s", it.Name)
		}
	}
	if !lemmaVisible(p, "app_nil_r") {
		t.Fatal("earlier lemma missing")
	}
}

func TestWindowTruncationKeepsNearest(t *testing.T) {
	c := loadCorpus(t)
	b := Builder{Corpus: c, Setting: Vanilla, HintSet: map[string]bool{}, Window: 200}
	th, _ := c.TheoremNamed("tree_name_distinct_head")
	p := b.Build(th)
	if p.TotalTokens > 200 {
		t.Fatalf("prompt %d tokens over window", p.TotalTokens)
	}
	if p.Dropped == 0 {
		t.Fatal("expected truncation")
	}
	// The nearest item (last before the target in DirTree) must survive.
	last := p.Items[len(p.Items)-1]
	if last.Name == "" {
		t.Fatal("empty tail item")
	}
	// Distant Prelude items must be gone.
	if lemmaVisible(p, "plus_O_n") {
		t.Fatal("distant lemma survived a 200-token window")
	}
}

func TestReducedContext(t *testing.T) {
	c := loadCorpus(t)
	b := Builder{Corpus: c, Setting: Hint, HintSet: HintSplit(c, 0.5, 1)}
	th, _ := c.TheoremNamed("incl_tl_inv")
	full := b.Build(th)
	red := b.ReducedContext(th)
	if len(red.Items) >= len(full.Items) {
		t.Fatalf("reduced context not smaller: %d vs %d", len(red.Items), len(full.Items))
	}
	// Lemmas the human proof uses survive; unrelated ones are gone.
	for _, it := range red.Items {
		if it.Kind != corpus.ItemLemma {
			continue
		}
		if it.Name == "mult_comm" {
			t.Fatal("unrelated lemma survived reduction")
		}
	}
}

func TestPromptTextRenders(t *testing.T) {
	c := loadCorpus(t)
	b := Builder{Corpus: c, Setting: Vanilla, HintSet: map[string]bool{}}
	th, _ := c.TheoremNamed("plus_comm")
	text := b.Build(th).Text()
	if !strings.Contains(text, "Prove:") || !strings.Contains(text, "plus_comm") {
		t.Fatalf("prompt text:\n%s", text[:200])
	}
}

// The cache must be a pure performance layer: for every theorem, setting,
// and window, the cached builder and the direct builder must produce
// identical prompts (items, tokens, truncation) — the determinism guarantee
// the whole experiment grid rests on. At windows 0 and 500 the hint leg
// also compares the reduced-context path, which filters the prompt Build
// assembles, through the cache when one is set.
func TestCacheMatchesDirectBuild(t *testing.T) {
	c := loadCorpus(t)
	hints := HintSplit(c, 0.5, 2025)
	cache := NewCache(c, hints)
	for _, setting := range []Setting{Vanilla, Hint} {
		for _, window := range []int{0, 200, 500, 4000} {
			direct := Builder{Corpus: c, Setting: setting, HintSet: hints, Window: window}
			cached := Builder{Corpus: c, Setting: setting, HintSet: hints, Window: window, Cache: cache}
			for _, th := range c.Theorems {
				label := fmt.Sprintf("%s/%s/w%d", th.Name, setting, window)
				samePrompt(t, label, direct.Build(th), cached.Build(th))
				if setting == Hint && (window == 0 || window == 500) {
					samePrompt(t, label+" reduced", direct.ReducedContext(th), cached.ReducedContext(th))
				}
			}
		}
	}
}

func samePrompt(t *testing.T, label string, a, b *Prompt) {
	t.Helper()
	if a.TotalTokens != b.TotalTokens || a.Dropped != b.Dropped || len(a.Items) != len(b.Items) {
		t.Fatalf("%s: shape differs: tokens %d vs %d, dropped %d vs %d, items %d vs %d",
			label, a.TotalTokens, b.TotalTokens, a.Dropped, b.Dropped, len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("%s: item %d differs: %+v vs %+v", label, i, a.Items[i], b.Items[i])
		}
	}
}
