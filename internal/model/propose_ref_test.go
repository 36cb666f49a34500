package model

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
)

// refCand is a candidate named by its text, as the reference handles it.
type refCand struct {
	text    string
	h, r, j float64
}

// refModel is Propose written directly on strings, without ids, stamps,
// memoized slates or a key bound: every query rebuilds the pool, folds it
// through a map keyed on dedup keys, scores it through a per-text memo,
// computes every Gumbel key and sorts them all. It is the specification
// the production path must reproduce bit for bit. gen generates candidate
// texts only (structural, junk), so its vocabulary is never used.
type refModel struct {
	gen     *Model
	scoreNG *NGram
	parts   map[string][2]float64 // key -> 0.12*log1p(unigram), 0.05*log1p(head)
}

func newRefModel(p Profile, env *kernel.Env) *refModel {
	return &refModel{gen: New(p, env)}
}

// gumbel draws a standard Gumbel variate.
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(-math.Log(u))
}

func (r *refModel) propose(p *prompt.Prompt, st *tactic.State, path []string, ng *NGram, rng *rand.Rand) []Candidate {
	if st.Done() || len(st.Goals) == 0 {
		return nil
	}
	goal := st.Goals[0]
	prev := "<start>"
	if len(path) > 0 {
		prev = textmetrics.NormalizeScript(path[len(path)-1])
	}
	var pool []refCand
	for _, c := range r.gen.structural(nil, goal) {
		pool = append(pool, refCand{text: c.text, h: c.h})
	}
	pool = append(pool, refRetrieval(r.gen, p, goal, ng)...)
	if nx := ng.nextOf(prev); nx != nil {
		for _, cont := range nx.conts {
			pool = append(pool, refCand{text: cont, h: 0.9})
		}
		for _, pair := range nx.pairs {
			pool = append(pool, refCand{text: pair.Text, h: 1.1 + 0.25*math.Log1p(pair.Count)})
		}
	}
	for _, c := range r.gen.junk(nil, goal, p, rng) {
		pool = append(pool, refCand{text: c.text, j: c.j})
	}

	var uniq []refCand
	at := map[string]int{}
	for _, c := range pool {
		key := dedupKey(c.text)
		if key == "" {
			continue
		}
		i, ok := at[key]
		if !ok {
			at[key] = len(uniq)
			uniq = append(uniq, refCand{text: key, h: c.h, r: c.r, j: c.j})
			continue
		}
		uniq[i].h = math.Max(uniq[i].h, c.h)
		uniq[i].r = math.Max(uniq[i].r, c.r)
		uniq[i].j = math.Max(uniq[i].j, c.j)
	}
	if len(uniq) == 0 {
		return nil
	}

	prof := r.gen.Profile
	scoreable := ng != nil && ng.total != 0
	var biRow map[string]float64
	if scoreable {
		if r.scoreNG != ng {
			r.scoreNG = ng
			r.parts = map[string][2]float64{}
		}
		biRow = ng.bi[prev]
	}
	utils := make([]float64, len(uniq))
	maxU := math.Inf(-1)
	for i, c := range uniq {
		g := 0.0
		if scoreable {
			pt, ok := r.parts[c.text]
			if !ok {
				if n := ng.uni[c.text]; n != 0 {
					pt[0] = 0.12 * math.Log1p(n)
				}
				if n := ng.headUN[headOf(c.text)]; n != 0 {
					pt[1] = 0.05 * math.Log1p(n)
				}
				r.parts[c.text] = pt
			}
			if biRow != nil {
				if n := biRow[c.text]; n != 0 {
					g = 0.6 * math.Log1p(n)
				}
			}
			g += pt[0]
			g += pt[1]
			if g > 2.0 {
				g = 2.0
			}
		}
		utils[i] = 2.2*c.h*prof.HeuristicSkill + c.r + g*prof.HintBoost + c.j
		maxU = math.Max(maxU, utils[i])
	}
	temp := prof.Temperature
	if temp <= 0 {
		temp = 0.01
	}
	order, probs := refTopK(utils, maxU, temp, prof.MaxOutputs, rng)
	pMax := 0.0
	for _, idx := range order {
		pMax = math.Max(pMax, probs[idx])
	}
	var out []Candidate
	for rank, idx := range order {
		if rank >= 3 && probs[idx] < 0.12*pMax {
			continue
		}
		out = append(out, Candidate{Tactic: uniq[idx].text, LogProb: math.Log(probs[idx])})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].LogProb > out[b].LogProb })
	return out
}

// refTopK is Gumbel-top-k with every key computed: the softmax of the
// utilities, a key per candidate, a stable sort by key, descending, cut
// to k.
func refTopK(utils []float64, maxU, temp float64, k int, rng *rand.Rand) ([]int, []float64) {
	probs := make([]float64, len(utils))
	var z float64
	for i, u := range utils {
		probs[i] = math.Exp((u - maxU) / temp)
		z += probs[i]
	}
	for i := range probs {
		probs[i] /= z
	}
	keys := make([]float64, len(utils))
	order := make([]int, len(utils))
	for i, p := range probs {
		keys[i] = math.Log(p) + gumbel(rng)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	return order[:min(k, len(order))], probs
}

// promptKey keys the prompts TestProposeMatchesReference builds once per
// (setting, window, theorem).
type promptKey struct {
	setting prompt.Setting
	window  int
	th      string
}

type builtPrompt struct {
	pr *prompt.Prompt
	ng *NGram
}

// Propose must equal the string reference bit for bit — candidate texts,
// LogProb bits and the RNG state after — for every test theorem, in both
// settings, under every paper profile: at the root goal three times (a
// first sighting, the sighting that memoizes the slate, a memo hit), at
// the goal after intros, and at each believed state of a whole-proof
// roll-out, whose script must equal WholeProof's.
func TestProposeMatchesReference(t *testing.T) {
	c, hints, ths := testTheorems(t)
	shared := NewLemmaTable(c.Env)
	built := map[promptKey]builtPrompt{}
	queries := 0
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		for _, prof := range Paper() {
			b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: prof.ContextWindow}
			for _, th := range ths {
				pk := promptKey{setting, prof.ContextWindow, th.Name}
				bp, ok := built[pk]
				if !ok {
					pr := b.Build(th)
					bp = builtPrompt{pr, BuildNGram(pr)}
					built[pk] = bp
				}
				pr, ng := bp.pr, bp.ng
				what := setting.String() + "/" + prof.Name + "/" + th.Name
				env := envBefore(c.Env, th.Name)
				m := NewWithLemmas(prof, env, shared)
				ref := newRefModel(prof, env)
				rngM, rngR := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
				check := func(st *tactic.State, path []string) []Candidate {
					got := append([]Candidate(nil), m.Propose(pr, st, path, ng, rngM)...)
					sameSlate(t, what, got, ref.propose(pr, st, path, ng, rngR))
					queries++
					return got
				}

				root := tactic.NewState(env, th.Stmt)
				for i := 0; i < 3; i++ {
					check(root, nil)
				}
				if res := checker.TryTactic(root, "intros."); res.Status == checker.Applied && !res.State.Done() {
					check(res.State, []string{"intros."})
				}

				// WholeProof's roll-out, replayed with both models proposing
				// at every believed state.
				believed := root
				var script []string
				for step := 0; step < 24 && !believed.Done(); step++ {
					cands := check(believed, script)
					if len(cands) == 0 {
						break
					}
					tac := cands[0].Tactic
					if res := checker.TryTactic(believed, tac); res.Status == checker.Applied {
						believed = res.State
						script = append(script, tac)
						continue
					}
					stop := rngM.Float64() < 0.3+0.4*prof.HeuristicSkill
					rngR.Float64()
					if stop {
						break
					}
					script = append(script, tac)
					believed = &tactic.State{Env: believed.Env, Goals: believed.Goals[1:]}
				}
				if rngM.Int63() != rngR.Int63() {
					t.Fatalf("%s: RNG states diverged", what)
				}

				// The replay above is WholeProof's loop: same seed, same script.
				rngW := rand.New(rand.NewSource(11))
				m2 := NewWithLemmas(prof, env, shared)
				for i := 0; i < 3; i++ {
					m2.Propose(pr, root, nil, ng, rngW)
				}
				if res := checker.TryTactic(root, "intros."); res.Status == checker.Applied && !res.State.Done() {
					m2.Propose(pr, res.State, []string{"intros."}, ng, rngW)
				}
				if ws := m2.WholeProof(pr, th.Stmt, ng, rngW, 24); !slices.Equal(ws, script) {
					t.Fatalf("%s: WholeProof wrote %q, the replay %q", what, ws, script)
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("no queries checked")
	}
	t.Logf("%d queries checked", queries)
}

// A model without a shared table analyzes its first prompt's lemmas
// privately; a prompt showing lemmas outside that table makes it build
// another, which renumbers its vocabulary. Its slates must still equal
// the reference's, query after query.
func TestProposeMatchesReferenceAcrossTables(t *testing.T) {
	c, hints, ths := testTheorems(t)
	last := ths[len(ths)-1]
	env := envBefore(c.Env, last.Name)
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: GPT4o.ContextWindow}
		m := New(GPT4o, env)
		ref := newRefModel(GPT4o, env)
		rngM, rngR := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
		changes := 0
		var table *LemmaTable
		for _, th := range []*corpus.Theorem{ths[0], last, ths[len(ths)/2], ths[0]} {
			pr := b.Build(th)
			ng := BuildNGram(pr)
			root := tactic.NewState(env, th.Stmt)
			for i := 0; i < 3; i++ {
				got := append([]Candidate(nil), m.Propose(pr, root, nil, ng, rngM)...)
				sameSlate(t, setting.String()+"/"+th.Name, got, ref.propose(pr, root, nil, ng, rngR))
			}
			if m.lemmas != table {
				table = m.lemmas
				changes++
			}
		}
		if changes < 2 {
			t.Fatalf("%s: the model kept one table for every prompt; the vocabulary reset went untested", setting)
		}
		if rngM.Int63() != rngR.Int63() {
			t.Fatalf("%s: RNG states diverged", setting)
		}
	}
}

// Every bucket's ceiling must bound G(u) = -Log(-Log(u)) over the bucket:
// at its lower edge, just above it, and at its largest member, within the
// margin; and the bucket index of each must be the bucket.
func TestGumbelCeilBoundsBuckets(t *testing.T) {
	for b := 0; b < gumbelBuckets; b++ {
		lo := float64(b) / gumbelBuckets
		if b == 0 {
			lo = math.Nextafter(0, 1)
		}
		hi := math.Nextafter(float64(b+1)/gumbelBuckets, 0)
		for _, u := range []float64{lo, math.Nextafter(lo, 1), hi} {
			if got := int(u * gumbelBuckets); got != b {
				t.Fatalf("u=%v: bucket %d, want %d", u, got, b)
			}
			if g := -math.Log(-math.Log(u)); !(g <= gumbelCeil[b]+gumbelMargin) {
				t.Fatalf("bucket %d: G(%v) = %v exceeds its ceiling %v", b, u, g, gumbelCeil[b])
			}
		}
	}
	if !math.IsInf(gumbelCeil[gumbelBuckets-1], 1) {
		t.Fatal("the last bucket must never be skipped")
	}
}

// scripted is a rand.Source replaying fixed Int63 values, cyclically.
type scripted struct {
	vals []int64
	i    int
}

func (s *scripted) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *scripted) Seed(int64) {}

// lastBucket is an Int63 whose Float64 lands in the last bucket.
const lastBucket = int64(1<<63 - 1<<52)

// The lazy selection must equal computing every key — the same order,
// bit-equal probabilities for the selected, the same RNG draws — on
// synthetic slates built to stress the bound.
func TestGumbelTopKMatchesFullKeys(t *testing.T) {
	type slate struct {
		name  string
		utils []float64
		temp  float64
		k     int
		src   func() rand.Source
	}
	seeded := func(seed int64) func() rand.Source {
		return func() rand.Source { return rand.NewSource(seed) }
	}
	fixed := func(vals ...int64) func() rand.Source {
		return func() rand.Source { return &scripted{vals: vals} }
	}
	spread := func(n int, temp, width float64, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		u := make([]float64, n)
		for i := range u {
			u[i] = -rng.Float64() * width * temp
		}
		return u
	}
	var cases []slate
	for seed := int64(1); seed <= 200; seed++ {
		temp := []float64{0.01, 0.7, 1.5}[seed%3]
		// Spreads over 745*temp put probabilities in the subnormal range
		// and below it (exactly zero).
		width := []float64{3, 40, 760, 1e4}[seed%4]
		cases = append(cases, slate{"random", spread(int(5+seed%150), temp, width, seed), temp, 8, seeded(seed)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		// A band of probabilities a few subnormal ulps wide: rounding moves
		// their logarithms by up to a half, far past the bucket slack, so
		// only the subnormal clamp keeps the bound above their keys.
		u := make([]float64, 120)
		rng := rand.New(rand.NewSource(seed))
		for i := 1; i < len(u); i++ {
			u[i] = -(742 + 3*rng.Float64())
		}
		cases = append(cases, slate{"subnormal band", u, 1, 8, seeded(seed)})
	}
	flat := make([]float64, 40)
	cases = append(cases,
		slate{"tied keys", flat, 0.7, 8, fixed(1 << 62)},
		slate{"tied keys, zero draws", flat, 0.7, 8, fixed(0, 1<<62, 0, 0, 1<<61)},
		slate{"k >= len", spread(6, 1, 5, 3), 1, 8, seeded(3)},
		slate{"k == 0", spread(6, 1, 5, 3), 1, 0, seeded(3)},
		slate{"k == len", spread(8, 1, 5, 4), 1, 8, seeded(4)},
		slate{"last bucket", spread(60, 0.7, 30, 5), 0.7, 8, fixed(1<<62, 1<<60, lastBucket, 1<<61, lastBucket+1<<40)},
		slate{"last bucket, underflow", spread(60, 0.01, 1e4, 6), 0.01, 8, fixed(1<<55, lastBucket, 1<<50)},
		slate{"all zero but one", append([]float64{0}, spread(50, 0.01, 2e5, 7)...), 0.01, 8, seeded(7)},
	)
	for _, c := range cases {
		maxU := math.Inf(-1)
		for _, u := range c.utils {
			maxU = math.Max(maxU, u)
		}
		rngL, rngF := rand.New(c.src()), rand.New(c.src())
		n := len(c.utils)
		lanes := make([]float64, 3*n)
		copy(lanes, c.utils)
		got := gumbelTopK(nil, lanes, maxU, c.temp, min(c.k, n), rngL)
		want, probs := refTopK(c.utils, maxU, c.temp, c.k, rngF)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d): order %v, want %v", c.name, n, got, want)
		}
		for _, idx := range got {
			if math.Float64bits(lanes[n+idx]) != math.Float64bits(probs[idx]) {
				t.Fatalf("%s: probability of %d is %v, want %v", c.name, idx, lanes[n+idx], probs[idx])
			}
		}
		if rngL.Int63() != rngF.Int63() {
			t.Fatalf("%s: RNG states diverged", c.name)
		}
	}
}
