package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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

// refModel is Propose written directly on strings, without ids, tuples,
// stamps, views, per-formula facts or a key bound: every query rebuilds the
// pool from refStructural and refRetrieval, folds it through a map keyed on
// dedup keys, scores it through a per-text memo, draws its noise from the
// prompt's lemma items, computes every Gumbel key and sorts them all. It is
// the specification the production path must reproduce bit for bit.
type refModel struct {
	prof    Profile
	env     *kernel.Env
	scoreNG *NGram
	parts   map[string][2]float64 // key -> 0.12*log1p(unigram), 0.05*log1p(head)
}

func newRefModel(p Profile, env *kernel.Env) *refModel {
	return &refModel{prof: p, env: env}
}

// refJunk is the capability noise drawn from the prompt's lemma items, where
// Propose draws from its view: the slates agree only if the view lists
// exactly the prompt's lemmas, in prompt order.
func refJunk(prof Profile, p *prompt.Prompt, rng *rand.Rand) []refCand {
	names := promptLemmas(p)
	lemma := func() string {
		if len(names) == 0 {
			return ""
		}
		return names[rng.Intn(len(names))]
	}
	var out []refCand
	level := 3.4 * prof.NoiseRate
	for i := 0; i < int(math.Round(prof.NoiseRate*10)); i++ {
		u := (0.4 + rng.Float64()) * level
		switch rng.Intn(4) {
		case 0:
			out = append(out, refCand{text: junkTactics[rng.Intn(len(junkTactics))], j: u})
		case 1:
			if name := lemma(); name != "" {
				out = append(out, refCand{text: "apply " + name + ".", j: u})
			}
		case 2:
			if name := lemma(); name != "" {
				out = append(out, refCand{text: "rewrite " + name + ".", j: u})
			}
		default:
			out = append(out, refCand{text: fmt.Sprintf("apply H%d.", rng.Intn(9)), j: u})
		}
	}
	return out
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
	refStructural(r.env, goal, func(text string, h float64) {
		pool = append(pool, refCand{text: text, h: h})
	})
	pool = append(pool, refRetrieval(r.prof, r.env, p, goal, ng)...)
	if nx := ng.nextOf(prev); nx != nil {
		for _, cont := range nx.conts {
			pool = append(pool, refCand{text: cont, h: 0.9})
		}
		for _, pair := range nx.pairs {
			pool = append(pool, refCand{text: pair.Text, h: 1.1 + 0.25*math.Log1p(pair.Count)})
		}
	}
	pool = append(pool, refJunk(r.prof, p, rng)...)

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

	prof := r.prof
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
// settings, under every paper profile: at the root goal three times (the
// view built, then reused), at the goal after intros, and at each believed
// state of a whole-proof roll-out, whose script must equal WholeProof's.
// Then, under GPT-4o, at every state of the recorded searches.
// Two models propose beside the reference: a fresh one per combination,
// and one model rebound to every combination in turn, with one RNG
// re-seeded, as a grid worker reuses them across its searches.
func TestProposeMatchesReference(t *testing.T) {
	c, hints, ths := testTheorems(t)
	shared := NewLemmaTable(c.Env)
	built := map[promptKey]builtPrompt{}
	queries := 0
	reused := new(Model)
	rngU := rand.New(rand.NewSource(0))
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		for _, th := range ths {
			env := c.EnvBefore(th.Name)
			// Profile-minor, so the rebound model sees one prompt under
			// consecutive profiles that share its context window.
			for _, prof := range Paper() {
				pk := promptKey{setting, prof.ContextWindow, th.Name}
				bp, ok := built[pk]
				if !ok {
					b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: prof.ContextWindow}
					pr := b.Build(th)
					bp = builtPrompt{pr, BuildNGram(pr)}
					built[pk] = bp
				}
				pr, ng := bp.pr, bp.ng
				what := setting.String() + "/" + prof.Name + "/" + th.Name
				m := NewWithLemmas(prof, env, shared)
				reused.Rebind(prof, env, shared)
				rngU.Seed(11)
				ref := newRefModel(prof, env)
				rngM, rngR := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
				check := func(st *tactic.State, path []string) []Candidate {
					want := ref.propose(pr, st, path, ng, rngR)
					got := append([]Candidate(nil), m.Propose(pr, st, path, ng, rngM)...)
					sameSlate(t, what, got, want)
					sameSlate(t, what+" (rebound model)", reused.Propose(pr, st, path, ng, rngU), want)
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
					rngU.Float64()
					if stop {
						break
					}
					script = append(script, tac)
					believed = &tactic.State{Env: believed.Env, Goals: believed.Goals[1:]}
				}
				if r := rngR.Int63(); rngM.Int63() != r || rngU.Int63() != r {
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

	// Goals no search of the test set reaches, for the paths they take: a
	// hypothesis with a stuck match that the conclusion lacks. They are
	// proposed at under the shared table and under the theorem's own, which
	// for the corpus's first lemma holds no lemma and numbers no symbol.
	first, ok := c.TheoremNamed(c.Env.LemmaOrder[0])
	if !ok {
		t.Fatalf("no theorem %s", c.Env.LemmaOrder[0])
	}
	for _, th := range append([]*corpus.Theorem{first}, ths...) {
		env := c.EnvBefore(th.Name)
		st, err := tactic.ApplySentence(tactic.NewState(env, th.Stmt), "intros.")
		if err != nil {
			st = tactic.NewState(env, th.Stmt)
		}
		st, err = tactic.ApplySentence(st, "assert ((match plus 0 0 with | O => true | S k => false end) = true) as HM.")
		if err != nil {
			t.Fatalf("%s: %v", th.Name, err)
		}
		st = &tactic.State{Env: env, Goals: st.Goals[1:]}
		b := prompt.Builder{Corpus: c, Setting: prompt.Hint, HintSet: hints, Window: GPT4o.ContextWindow}
		pr := b.Build(th)
		ng := BuildNGram(pr)
		for _, lt := range []*LemmaTable{shared, NewLemmaTable(env)} {
			m := NewWithLemmas(GPT4o, env, lt)
			ref := newRefModel(GPT4o, env)
			rngM, rngR := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			sameSlate(t, th.Name+" with HM", m.Propose(pr, st, []string{"intros."}, ng, rngM), ref.propose(pr, st, []string{"intros."}, ng, rngR))
			queries++
		}
	}

	// Every state a recorded best-first search queried, in the search's
	// order: the deep goals of searches that run out of fuel, where
	// hypotheses accumulate and the per-formula memo is reused across
	// queries. A fresh model and the rebound one propose beside the
	// reference, and the RNGs must agree after each query.
	for _, s := range recordedSearches(t) {
		m := NewWithLemmas(GPT4o, s.Env, shared)
		reused.Rebind(GPT4o, s.Env, shared)
		ref := newRefModel(GPT4o, s.Env)
		rngM, rngU, rngR := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
		for i, q := range s.Queries {
			what := fmt.Sprintf("%s query %d", s.Theorem, i)
			want := ref.propose(s.Prompt, q.State, q.Path, s.NGram, rngR)
			sameSlate(t, what, m.Propose(s.Prompt, q.State, q.Path, s.NGram, rngM), want)
			sameSlate(t, what+" (rebound model)", reused.Propose(s.Prompt, q.State, q.Path, s.NGram, rngU), want)
			if r := rngR.Int63(); rngM.Int63() != r || rngU.Int63() != r {
				t.Fatalf("%s: RNG states diverged", what)
			}
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no queries checked")
	}
	t.Logf("%d queries checked", queries)
}

// RecordedSearch is the queries of one best-first search, in order, with
// the environment, prompt and n-gram it proposed from.
type RecordedSearch struct {
	Theorem string
	Env     *kernel.Env
	Prompt  *prompt.Prompt
	NGram   *NGram
	Queries []RecordedQuery
}

// RecordedQuery is one query of a recorded search: the state proposed at
// and the path to it.
type RecordedQuery struct {
	State *tactic.State
	Path  []string
}

// RecordSearches records the best-first searches of the model tests. It is
// set by searches_test.go, in package model_test, because the search and
// the sweep's runner import this package.
var RecordSearches func(t testing.TB) []RecordedSearch

var recorded struct {
	once     sync.Once
	searches []RecordedSearch
}

// recordedSearches returns RecordSearches' searches, recorded once per test
// binary.
func recordedSearches(t testing.TB) []RecordedSearch {
	t.Helper()
	if RecordSearches == nil {
		t.Fatal("no search recorder: searches_test.go sets RecordSearches")
	}
	recorded.once.Do(func() { recorded.searches = RecordSearches(t) })
	if len(recorded.searches) == 0 {
		t.Fatal("no searches recorded")
	}
	return recorded.searches
}

// reversedLemmaTable analyzes env's lemmas in reverse declaration order, so
// that its lemmas, symbols and candidate keys get other ids than
// NewLemmaTable(env) gives them.
func reversedLemmaTable(env *kernel.Env) *LemmaTable {
	rev := *env
	rev.LemmaOrder = slices.Clone(env.LemmaOrder)
	slices.Reverse(rev.LemmaOrder)
	return NewLemmaTable(&rev)
}

// A model rebound onto another lemma table renumbers its vocabulary on its
// next query. One model, built on a table over its restricted environment
// and rebound in turn onto the corpus table and a table numbered in reverse,
// must equal the reference query after query, under each table.
func TestProposeMatchesReferenceAcrossTables(t *testing.T) {
	c, hints, ths := testTheorems(t)
	last := ths[len(ths)-1]
	env := c.EnvBefore(last.Name)
	tables := []*LemmaTable{NewLemmaTable(env), NewLemmaTable(c.Env), reversedLemmaTable(env)}
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: GPT4o.ContextWindow}
		m := NewWithLemmas(GPT4o, env, tables[0])
		ref := newRefModel(GPT4o, env)
		rngM, rngR := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
		for i, lt := range tables {
			if i > 0 {
				m.Rebind(GPT4o, env, lt)
			}
			for _, th := range []*corpus.Theorem{ths[0], last, ths[len(ths)/2]} {
				pr := b.Build(th)
				ng := BuildNGram(pr)
				root := tactic.NewState(env, th.Stmt)
				for q := 0; q < 3; q++ {
					got := append([]Candidate(nil), m.Propose(pr, root, nil, ng, rngM)...)
					sameSlate(t, setting.String()+"/"+th.Name, got, ref.propose(pr, root, nil, ng, rngR))
				}
			}
			if m.idsOf != lt {
				t.Fatalf("%s: the model rebound onto table %d numbers its vocabulary under another", setting, i)
			}
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
	// Runs of equal utilities, whose Exp is reused, beside neighbours one
	// ulp apart, whose Exp must not be.
	runs := make([]float64, 60)
	for i := range runs {
		runs[i] = -float64(i / 4)
		if i%4 == 3 {
			runs[i] = math.Nextafter(runs[i], math.Inf(-1))
		}
	}
	cases = append(cases,
		slate{"runs and ulp neighbours", runs, 0.7, 8, seeded(8)},
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

// refConclHead is the head of f's conclusion, under its quantifiers and
// premises, as a string.
func refConclHead(f *kernel.Form) string {
	for f != nil {
		switch f.Kind {
		case kernel.FForall, kernel.FExists:
			f = f.Body
		case kernel.FImpl:
			f = f.R
		case kernel.FNot:
			return "~"
		case kernel.FPred:
			return "P:" + f.Pred
		case kernel.FEq:
			return "="
		case kernel.FAnd:
			return "&"
		case kernel.FOr:
			return "|"
		case kernel.FIff:
			return "<>"
		case kernel.FTrue:
			return "T"
		case kernel.FFalse:
			return "F"
		default:
			return "?"
		}
	}
	return "?"
}

// refGoalHead is the head of a goal's conclusion, as a string.
func refGoalHead(f *kernel.Form) string {
	switch f.Kind {
	case kernel.FPred:
		return "P:" + f.Pred
	case kernel.FEq:
		return "="
	case kernel.FAnd:
		return "&"
	case kernel.FOr:
		return "|"
	case kernel.FIff:
		return "<>"
	case kernel.FNot:
		return "~"
	case kernel.FTrue:
		return "T"
	case kernel.FFalse:
		return "F"
	case kernel.FForall:
		return "A"
	case kernel.FExists:
		return "E"
	case kernel.FImpl:
		return ">"
	default:
		return "?"
	}
}

// refStructural is the goal-shape candidate pool written directly on
// strings, re-analyzing every formula of the goal per query: it emits each
// text with its heuristic h, in order. It is the specification of
// Model.structural, whose templates, operand ids and per-formula facts must
// reproduce it.
func refStructural(env *kernel.Env, g *tactic.Goal, emit func(text string, h float64)) {
	add := func(h float64, parts ...string) { emit(strings.Join(parts, ""), h) }
	c := g.Concl

	switch c.Kind {
	case kernel.FForall, kernel.FImpl:
		add(2.6, "intros.")
	case kernel.FNot:
		add(2.2, "intro.")
	case kernel.FAnd:
		add(2.5, "split.")
	case kernel.FIff:
		add(2.2, "split.")
	case kernel.FOr:
		add(1.1, "left.")
		add(1.0, "right.")
	case kernel.FTrue:
		add(3.0, "constructor.")
	case kernel.FFalse:
		add(1.4, "contradiction.")
	case kernel.FEq:
		add(2.1, "reflexivity.")
		add(1.4, "simpl.")
		add(0.2, "symmetry.")
		add(0.6, "congruence.")
		if c.T1.IsApp() && c.T2.IsApp() && c.T1.Fun == c.T2.Fun && len(c.T1.Args) == len(c.T2.Args) {
			add(1.0, "f_equal.")
		}
	case kernel.FExists:
		for _, v := range g.Vars {
			if c.BType == nil || v.Type == nil || v.Type.Name == c.BType.Name {
				add(1.5, "exists ", v.Name, ".")
			}
		}
		add(0.6, "exists 0.")
		add(0.5, "exists nil.")
	case kernel.FPred:
		if _, isInd := env.Preds[c.Pred]; isInd {
			add(1.7, "constructor.")
			add(1.0, "econstructor.")
		}
		if _, isDef := env.Defs[c.Pred]; isDef {
			add(1.8, "unfold ", c.Pred, ".")
		}
	}

	arithHyps := false
	for _, h := range g.Hyps {
		if looksArith(h.Form) {
			arithHyps = true
			break
		}
	}
	switch {
	case looksArith(c) && arithHyps:
		add(1.9, "omega.")
	case looksArith(c):
		add(1.3, "omega.")
	case arithHyps && (c.Kind == kernel.FEq || c.Kind == kernel.FFalse || c.Kind == kernel.FNot || c.Kind == kernel.FPred):
		add(1.4, "omega.")
	}
	add(1.2, "auto.")
	add(0.9, "eauto.")

	// Hypothesis-directed moves.
	substUseful := false
	gh := refGoalHead(c)
	var ck [2]uint64 // the conclusion's fingerprint, for assumption
	if len(g.Hyps) > 0 {
		ck = c.FingerprintKey()
	}
	for _, h := range g.Hyps {
		switch h.Form.Kind {
		case kernel.FFalse:
			add(3.0, "contradiction.")
		case kernel.FAnd, kernel.FExists, kernel.FOr:
			add(1.6, "destruct ", h.Name, ".")
			add(0.6, "inversion ", h.Name, ".")
		case kernel.FIff:
			add(1.2, "destruct ", h.Name, ".")
		case kernel.FEq:
			if h.Form.T1.IsVar() || h.Form.T2.IsVar() {
				substUseful = true
			}
			add(1.1, "rewrite ", h.Name, ".")
			add(0.5, "rewrite <- ", h.Name, ".")
			add(0.1, "rewrite ", h.Name, " in *.") // unsupported form: realistic junk
			if h.Form.T1.IsApp() && h.Form.T2.IsApp() && env.IsConstructor(h.Form.T1.Fun) && env.IsConstructor(h.Form.T2.Fun) {
				if h.Form.T1.Fun != h.Form.T2.Fun {
					add(2.6, "discriminate ", h.Name, ".")
				} else {
					add(1.6, "inversion ", h.Name, ".")
				}
			}
			add(0.5, "simpl in ", h.Name, ".")
		case kernel.FPred:
			if _, isInd := env.Preds[h.Form.Pred]; isInd {
				w := 1.0
				for _, a := range h.Form.Args {
					if a.IsApp() && env.IsConstructor(a.Fun) {
						w = 1.8
						break
					}
				}
				add(w, "inversion ", h.Name, ".")
				add(0.8, "induction ", h.Name, ".")
			}
			if _, isDef := env.Defs[h.Form.Pred]; isDef {
				add(1.4, "unfold ", h.Form.Pred, " in ", h.Name, ".")
			}
			add(0.4, "simpl in ", h.Name, ".")
		case kernel.FForall, kernel.FImpl:
			if refConclHead(h.Form) == gh {
				add(1.9, "apply ", h.Name, ".")
				add(1.1, "eapply ", h.Name, ".")
			} else {
				add(0.5, "apply ", h.Name, ".")
			}
			// Quantified equations (induction hypotheses above all) are
			// rewriting material.
			if refConclHead(h.Form) == "=" {
				w := 1.4
				if strings.HasPrefix(h.Name, "IH") {
					w = 2.1
				}
				add(w, "rewrite ", h.Name, ".")
				add(0.4*w, "rewrite <- ", h.Name, ".")
			}
		case kernel.FNot:
			if c.Kind == kernel.FFalse {
				add(2.0, "apply ", h.Name, ".")
			}
		}
		if h.Form.FingerprintKey() == ck {
			add(3.2, "assumption.")
		}
	}
	if substUseful {
		add(1.9, "subst.")
	}

	// Variable-directed induction/destruct. A variable scrutinized by a
	// recursive function in the goal is the prime induction candidate.
	recArgs := refRecursiveArgVars(env, c)
	for _, v := range g.Vars {
		if v.Type == nil || v.Type.TVar {
			continue
		}
		if _, isData := env.Datatypes[v.Type.Name]; !isData {
			continue
		}
		switch {
		case recArgs[v.Name]:
			add(2.2, "induction ", v.Name, ".")
			add(1.0, "destruct ", v.Name, ".")
		case c.HasFreeVar(v.Name):
			add(1.1, "induction ", v.Name, ".")
			add(0.9, "destruct ", v.Name, ".")
		default:
			add(0.1, "destruct ", v.Name, ".")
		}
	}
	// Induction on a not-yet-introduced leading binder (skipping type
	// binders, which are not inductive).
	if c.Kind == kernel.FForall {
		body := c
		seen := 0
		for body != nil && body.Kind == kernel.FForall && seen < 3 {
			if !body.BType.IsType() {
				w := 1.0
				if recArgs[body.Binder] {
					w = 2.0
				}
				add(w, "induction ", body.Binder, ".")
				seen++
			}
			body = body.Body
		}
	}

	// simpl when computation is visible.
	computes := false
	forEachSymbol(c, func(s string) {
		if _, isFun := env.Funs[s]; isFun {
			computes = true
		}
	})
	if computes {
		add(1.3, "simpl.")
	}

	// Stuck matches invite case analysis on the scrutinee (the
	// `destruct (eqb a n) eqn:He` idiom).
	for _, scrut := range refStuckScrutinees(c, 2) {
		add(2.0, "destruct (", scrut, ") eqn:He.")
	}
	for _, h := range g.Hyps {
		for _, scrut := range refStuckScrutinees(h.Form, 1) {
			add(1.3, "destruct (", scrut, ") eqn:He.")
		}
	}

	// Targeted rewriting: an equation hypothesis whose left-hand side
	// occurs in another hypothesis or in the goal.
	for _, e := range g.Hyps {
		if e.Form.Kind != kernel.FEq || !e.Form.T1.IsApp() || len(e.Form.T1.Args) == 0 {
			continue
		}
		lhs := e.Form.T1
		if formContainsTerm(c, lhs) {
			add(2.0, "rewrite ", e.Name, ".")
		}
		for _, h := range g.Hyps {
			if h.Name == e.Name {
				continue
			}
			if formContainsTerm(h.Form, lhs) {
				add(1.8, "rewrite ", e.Name, " in ", h.Name, ".")
			}
		}
	}
}

// refStuckScrutinees collects the printable scrutinees of up to max stuck
// matches in a formula.
func refStuckScrutinees(f *kernel.Form, max int) []string {
	var out []string
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if len(out) >= max {
				return false
			}
			if u.Match != nil && !u.Match.Scrut.IsVar() {
				// Only propose scrutinees that print as plain applications.
				if u.Match.Scrut.IsApp() {
					out = append(out, u.Match.Scrut.String())
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil || len(out) >= max {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		}
	}
	walk(f)
	return out
}

// refRecursiveArgVars returns the variables that occur as arguments of
// recursive function applications anywhere in the formula — the natural
// induction candidates.
func refRecursiveArgVars(env *kernel.Env, f *kernel.Form) map[string]bool {
	out := map[string]bool{}
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsApp() {
				if fd, ok := env.Funs[u.Fun]; ok && fd.Recursive {
					for _, a := range u.Args {
						if a.IsVar() {
							out[a.Var] = true
						}
					}
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		case kernel.FForall, kernel.FExists:
			walk(f.Body)
		}
	}
	walk(f)
	return out
}
