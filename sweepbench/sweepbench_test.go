package main

import (
	"math"
	"testing"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
)

// batchBackend opens documents that advertise checker.BatchDoc, like the
// remote backend with batching on.
type batchBackend struct{}

func (batchBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	d, err := checker.InProcess{}.NewDoc(env, stmt, lemma)
	return batchDoc{d}, err
}

func (batchBackend) Close() error { return nil }

type batchDoc struct{ checker.Doc }

func (d batchDoc) TryBatch(parent *tactic.State, path []string, sentences []string) []checker.Step {
	steps := make([]checker.Step, len(sentences))
	for i, s := range sentences {
		steps[i] = d.Try(parent, path, s)
	}
	return steps
}

func TestTimedBackendKeepsSearchStrategy(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	th := c.Theorems[0]
	env := eval.NewRunner(c, splitSeed).RestrictEnv(th)

	rec := &searchRec{tryH: new(hist)}
	doc, err := (&timedBackend{inner: checker.InProcess{}, rec: rec}).NewDoc(env, th.Stmt, th.Name)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := doc.(checker.ScratchTryer)
	if !ok {
		t.Fatal("wrapped in-process document lost checker.ScratchTryer: the search would leave its arena path")
	}
	if _, ok := doc.(checker.BatchDoc); ok {
		t.Fatal("wrapped in-process document offers checker.BatchDoc: the serial search would run eagerly")
	}
	doc.Try(doc.Root(), nil, "intros.")
	st.TryScratch(doc.Root(), nil, "intros.", &kernel.Scratch{})
	if got := rec.live.calls.Load(); got != 2 {
		t.Fatalf("Try and TryScratch counted %d calls, want 2", got)
	}
	if rec.NewDocCalls != 1 {
		t.Fatalf("NewDoc counted %d calls, want 1", rec.NewDocCalls)
	}

	doc, err = (&timedBackend{inner: batchBackend{}, rec: &searchRec{tryH: new(hist)}}).NewDoc(env, th.Stmt, th.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.(checker.BatchDoc); ok {
		t.Fatal("wrapper forwards checker.BatchDoc")
	}
	if _, ok := doc.(checker.ScratchTryer); ok {
		t.Fatal("wrapper offers checker.ScratchTryer over a document without it")
	}
}

// sliceSweep runs the hinted GPT-4o sweep over the first n test theorems,
// the way the schedule's ablations do, and returns its verdict digest.
func sliceSweep(t *testing.T, tr *tracer, storeDir string, search func(core.Config) core.Result, name string, n int) (string, *store.CacheStats) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := eval.NewRunner(c, splitSeed)
	r.Parallelism = 2
	var pc *store.Cache
	if storeDir != "" {
		files, err := corpus.Sources()
		if err != nil {
			t.Fatal(err)
		}
		if pc, err = store.OpenCache(store.CacheConfig{Dir: storeDir, CorpusHash: corpus.Hash(files), MirrorDen: mirrorDen}); err != nil {
			t.Fatal(err)
		}
		r.ProofStore = pc
	}
	s := &schedule{r: r, c: c, tr: tr}
	r.Search, r.SearchName = tr.hook(search, name)
	s.tr.span("eval.ablation", "", s.workers(n), func() {
		s.record("slice", r.RunSweep(model.GPT4o, prompt.Hint, r.TestSet()[:n])...)
	})
	if proved, failed := replay(r, c, s.verdicts); failed > 0 {
		t.Fatalf("%d of %d proved scripts fail kernel replay", failed, proved)
	}
	if pc == nil {
		return digest(s.verdicts), nil
	}
	r.FlushProofStore()
	st := pc.Stats()
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	return digest(s.verdicts), &st
}

func TestTracedSweepMatchesUntraced(t *testing.T) {
	const n = 16
	for _, alg := range []struct {
		name   string
		search func(core.Config) core.Result
	}{{"", nil}, {"linear", core.Linear}} {
		dir := t.TempDir()
		plain, rec := sliceSweep(t, nil, dir, alg.search, alg.name, n)
		if rec.Recorded == 0 {
			t.Fatalf("%q: untraced sweep recorded nothing", alg.name)
		}
		tr := newTracer()
		traced, warm := sliceSweep(t, tr, dir, alg.search, alg.name, n)
		if traced != plain {
			t.Errorf("%q: traced digest %s, untraced %s", alg.name, traced, plain)
		}
		// The hook keeps the untraced store key, so the traced sweep is warm.
		if warm.OutcomeMisses != 0 || warm.OutcomeHits != n {
			t.Errorf("%q: traced sweep over the untraced store: %d hits, %d misses; want %d, 0",
				alg.name, warm.OutcomeHits, warm.OutcomeMisses, n)
		}

		tr = newTracer()
		cold, _ := sliceSweep(t, tr, "", alg.search, alg.name, n)
		if cold != plain {
			t.Errorf("%q: traced cold digest %s, untraced %s", alg.name, cold, plain)
		}
		m := tr.layers(0)
		if m["core.searches"] != n {
			t.Errorf("%q: traced %v searches, want %d", alg.name, m["core.searches"], n)
		}
		if m["model.propose_calls"] != m["core.queries"] {
			t.Errorf("%q: %v Propose calls for %v queries", alg.name, m["model.propose_calls"], m["core.queries"])
		}
		if m["checker.try_calls"] != m["checker.applied"]+m["checker.rejected"]+m["checker.timeout"] {
			t.Errorf("%q: Try outcomes do not add up to %v calls", alg.name, m["checker.try_calls"])
		}
		if m["core.self_s"] <= 0 || m["eval.self_s"] <= 0 {
			t.Errorf("%q: self times core %v, eval %v; want both positive", alg.name, m["core.self_s"], m["eval.self_s"])
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := new(hist)
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 0.04*c.want {
			t.Errorf("quantile(%v) = %.0f ns, want %.0f ±4%%", c.q, got, c.want)
		}
	}
	if histBin(15) != 15 || histBin(16) != 16 || histBin(31) != 31 || histBin(32) != 32 {
		t.Error("histBin is not linear below 32 ns")
	}
	for _, v := range []int64{17, 1000, 123456, 1 << 40} {
		lo, hi := histRange(histBin(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("%d ns falls outside its bucket [%v, %v)", v, lo, hi)
		}
	}
}
