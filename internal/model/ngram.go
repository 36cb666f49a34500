package model

import (
	"math"

	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
)

// NGram is a bigram model over tactic sentences mined from the human
// proofs present in a prompt, plus per-lemma usage counts. It is what makes
// the hint setting help: FSCQ proofs share recurring tactic idioms and
// lemma-usage patterns, and seeing them steers both tactic choice and
// lemma retrieval.
type NGram struct {
	uni    map[string]float64
	bi     map[string]map[string]float64
	uniN   float64
	headUN map[string]float64
	total  int
	// nameFreq counts how often each identifier is used as a tactic
	// argument across the visible hint proofs (the usage-statistics signal
	// that boosts retrieval of frequently-applied lemmas).
	nameFreq map[string]float64
	// next holds what Propose folds in per predecessor — its top
	// proposeConts continuations and the two-step pairs built from them —
	// computed once when the n-gram is mined instead of sorted per query.
	next map[string]*nextSteps
}

// proposeConts is how many continuations (and pairs) Propose folds in.
const proposeConts = 3

// nextSteps is one predecessor's precomputed Continuations(prev,
// proposeConts) and ContinuationPairs(prev, proposeConts).
type nextSteps struct {
	conts []string
	pairs []WeightedCont
}

// BuildNGram mines the hint proofs of a prompt.
func BuildNGram(p *prompt.Prompt) *NGram {
	ng := &NGram{
		uni:      map[string]float64{},
		bi:       map[string]map[string]float64{},
		headUN:   map[string]float64{},
		nameFreq: map[string]float64{},
	}
	for _, it := range p.Items {
		if it.Proof == "" {
			continue
		}
		exprs, err := tactic.ParseScript(it.Proof)
		if err != nil {
			continue
		}
		prev := "<start>"
		for _, e := range exprs {
			s := textmetrics.NormalizeScript(tactic.ExprString(e))
			ng.uni[s]++
			ng.uniN++
			ng.headUN[headOf(s)]++
			countNames(e, ng.nameFreq)
			m := ng.bi[prev]
			if m == nil {
				m = map[string]float64{}
				ng.bi[prev] = m
			}
			m[s]++
			prev = s
			ng.total++
		}
	}
	ng.next = make(map[string]*nextSteps, len(ng.bi))
	for prev := range ng.bi {
		ng.next[prev] = &nextSteps{conts: ng.Continuations(prev, proposeConts)}
	}
	for _, nx := range ng.next {
		nx.pairs = ng.pairsOf(nx.conts)
	}
	return ng
}

// pairsOf builds the two-step idioms of ContinuationPairs from the ranked
// continuations of a predecessor, reading each one's own top successor
// from the precomputed table instead of re-sorting its row.
func (ng *NGram) pairsOf(conts []string) []WeightedCont {
	var out []WeightedCont
	for _, a := range conts {
		nx := ng.next[a]
		if nx == nil {
			continue
		}
		b := nx.conts[0]
		cnt := ng.bi[a][b]
		if cnt < 2 {
			continue
		}
		out = append(out, WeightedCont{Text: a + "; " + b, Count: cnt})
	}
	return out
}

// nextOf returns the precomputed proposals after prev (nil when there are
// none or ng is nil).
func (ng *NGram) nextOf(prev string) *nextSteps {
	if ng == nil {
		return nil
	}
	return ng.next[prev]
}

// countNames accumulates identifier-argument usage in a tactic expression.
func countNames(e tactic.Expr, freq map[string]float64) {
	switch t := e.(type) {
	case tactic.Seq:
		countNames(t.First, freq)
		countNames(t.Then, freq)
	case tactic.Alt:
		countNames(t.A, freq)
		countNames(t.B, freq)
	case tactic.Try:
		countNames(t.T, freq)
	case tactic.Repeat:
		countNames(t.T, freq)
	case tactic.Call:
		for _, id := range t.Idents {
			freq[id]++
		}
	}
}

// NameUsage returns the usage count of an identifier across hint proofs.
func (ng *NGram) NameUsage(name string) float64 {
	if ng == nil {
		return 0
	}
	return ng.nameFreq[name]
}

// headOf extracts the tactic head word of a sentence.
func headOf(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == ';' || c == '.' {
			return s[:i]
		}
	}
	return s
}

// Score rates a candidate sentence given the previous tactic in the current
// attempt: exact bigram continuation, exact unigram frequency, and
// head-word frequency, log-damped.
func (ng *NGram) Score(prev, cand string) float64 {
	if ng == nil || ng.total == 0 {
		return 0
	}
	cand = textmetrics.NormalizeScript(cand)
	s := 0.0
	if m, ok := ng.bi[prev]; ok {
		s += 0.6 * math.Log1p(m[cand])
	}
	s += 0.12 * math.Log1p(ng.uni[cand])
	s += 0.05 * math.Log1p(ng.headUN[headOf(cand)])
	// Cap the bonus so hint guidance re-ranks without collapsing the
	// proposal distribution onto a single candidate.
	if s > 2.0 {
		s = 2.0
	}
	return s
}

// ContinuationPairs returns up to k two-step idioms "a; b" where a is a
// frequent successor of prev and b a frequent successor of a — compound
// moves mined from hint proofs that let the model cover two steps in one
// query. Each pair carries its evidence count.
func (ng *NGram) ContinuationPairs(prev string, k int) []WeightedCont {
	if ng == nil {
		return nil
	}
	var out []WeightedCont
	for _, a := range ng.Continuations(prev, k) {
		bs := ng.Continuations(a, 1)
		if len(bs) == 0 {
			continue
		}
		b := bs[0]
		cnt := ng.bi[a][b]
		if cnt < 2 {
			continue
		}
		out = append(out, WeightedCont{Text: a + "; " + b, Count: cnt})
	}
	return out
}

// WeightedCont is a mined continuation with its evidence count.
type WeightedCont struct {
	Text  string
	Count float64
}

// Continuations returns up to k most frequent successors of prev, letting
// the n-gram model propose idiomatic follow-ups the goal-directed
// enumerator would not rank highly.
func (ng *NGram) Continuations(prev string, k int) []string {
	if ng == nil {
		return nil
	}
	m := ng.bi[prev]
	if len(m) == 0 {
		return nil
	}
	type kv struct {
		s string
		n float64
	}
	var all []kv
	for s, n := range m {
		//lint:ignore maporder all is fully ordered by the insertion sort below
		all = append(all, kv{s, n})
	}
	// Insertion sort by count desc then lexicographic for determinism.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].n > all[j-1].n || (all[j].n == all[j-1].n && all[j].s < all[j-1].s)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.s
	}
	return out
}
