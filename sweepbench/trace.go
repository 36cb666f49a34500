package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// tracer records the traced run from outside the program: spans around the
// benchmark's calls into eval and store, and one record per search taken
// from a Runner.Search hook. The ~10^5–10^6 Propose and Try calls inside a
// search are folded into that search's counters and into two shared latency
// histograms rather than kept as spans. Everything stays in memory until
// write.
//
// A nil *tracer is the untraced run: every method is a no-op that calls
// straight through.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// cur is the id of the top-level span in progress; searches started
	// under it record it as their parent. Spans are opened only by the
	// schedule's goroutine, one at a time.
	cur atomic.Int64

	mu       sync.Mutex
	spans    []span
	searches []*searchRec
	propose  hist // Propose latencies of every search
	try      hist // Try latencies of every search
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is one timed call into a layer. Workers is the number of goroutines
// the call keeps busy (RunGrid and RunSweep fan out; the rest are serial).
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Unit    string `json:"unit,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Workers int    `json:"workers"`
}

// searchRec is the record of one core search. Its unit id is the theorem
// name under the parent span: per-unit eval spans (probe, whole-proof)
// carry the same theorem in their own unit id.
type searchRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	Status           string `json:"status"`
	Queries          int    `json:"queries"`
	Expanded         int    `json:"expanded"`
	InvalidRejected  int    `json:"invalid_rejected"`
	InvalidDuplicate int    `json:"invalid_duplicate"`
	InvalidTimeout   int    `json:"invalid_timeout"`

	ProposeCalls int   `json:"propose_calls"`
	ProposeNs    int64 `json:"propose_ns"`
	Candidates   int   `json:"candidates"`
	NewDocCalls  int   `json:"newdoc_calls"`
	NewDocNs     int64 `json:"newdoc_ns"`
	TryCalls     int64 `json:"try_calls"`
	TryNs        int64 `json:"try_ns"`
	Applied      int64 `json:"applied"`
	Rejected     int64 `json:"rejected"`
	Timeout      int64 `json:"timeout"`

	// live holds the counters Try updates; with intra-search parallelism
	// several expansion workers call Try at once.
	live struct {
		calls, ns, applied, rejected, timeout atomic.Int64
	}
	// proposeH and tryH are the tracer's shared latency histograms.
	proposeH, tryH *hist
}

func (t *tracer) since() int64 { return int64(time.Since(t.t0)) }

// span runs fn as one top-level span. Searches fn starts are its children.
func (t *tracer) span(name, unit string, workers int, fn func()) {
	if t == nil {
		fn()
		return
	}
	sp := span{ID: t.nextID.Add(1), Name: name, Unit: unit, Workers: workers}
	t.cur.Store(sp.ID)
	sp.Start = t.since()
	fn()
	sp.End = t.since()
	t.cur.Store(0)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// hook returns the Runner.Search and Runner.SearchName for a sweep that
// would otherwise run search under name. Traced, the search is wrapped and
// the name is the key eval derives for the untraced run, so proof-store
// keys, and with them every warm hit, are unchanged.
func (t *tracer) hook(search func(core.Config) core.Result, name string) (func(core.Config) core.Result, string) {
	if t == nil {
		return search, name
	}
	if search == nil {
		search = core.BestFirst
		if name == "" {
			name = "best-first"
		}
	}
	return func(cfg core.Config) core.Result {
		rec := &searchRec{ID: t.nextID.Add(1), Parent: t.cur.Load(), Unit: cfg.Lemma, proposeH: &t.propose, tryH: &t.try}
		propose := cfg.Propose
		cfg.Propose = func(st *tactic.State, path []string) []model.Candidate {
			start := time.Now()
			cands := propose(st, path)
			d := time.Since(start)
			rec.ProposeCalls++
			rec.ProposeNs += int64(d)
			rec.Candidates += len(cands)
			rec.proposeH.add(d)
			return cands
		}
		be := cfg.Backend
		if be == nil {
			be = checker.InProcess{}
		}
		cfg.Backend = &timedBackend{inner: be, rec: rec}
		rec.Start = t.since()
		res := search(cfg)
		rec.End = t.since()
		rec.finish(res)
		t.mu.Lock()
		t.searches = append(t.searches, rec)
		t.mu.Unlock()
		return res
	}, name
}

func (rec *searchRec) finish(res core.Result) {
	rec.Status = res.Status.String()
	rec.Queries = res.Queries
	rec.Expanded = res.Expanded
	rec.InvalidRejected = res.InvalidRejected
	rec.InvalidDuplicate = res.InvalidDuplicate
	rec.InvalidTimeout = res.InvalidTimeout
	rec.TryCalls = rec.live.calls.Load()
	rec.TryNs = rec.live.ns.Load()
	rec.Applied = rec.live.applied.Load()
	rec.Rejected = rec.live.rejected.Load()
	rec.Timeout = rec.live.timeout.Load()
}

// timedBackend times document creation and every Try of one search.
type timedBackend struct {
	inner checker.Backend
	rec   *searchRec
}

// NewDoc wraps the inner document. The wrapper forwards
// checker.ScratchTryer when the inner document has it, so the search keeps
// its allocation-free arena path, and never offers checker.BatchDoc, which
// would switch the serial search from lazy to eager execution.
func (b *timedBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	start := time.Now()
	doc, err := b.inner.NewDoc(env, stmt, lemma)
	b.rec.NewDocCalls++
	b.rec.NewDocNs += int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	d := &timedDoc{inner: doc, rec: b.rec}
	if st, ok := doc.(checker.ScratchTryer); ok {
		return &timedScratchDoc{timedDoc: d, st: st}, nil
	}
	return d, nil
}

// Close is a no-op: the wrapper is per search, the inner backend belongs
// to the Runner.
func (b *timedBackend) Close() error { return nil }

type timedDoc struct {
	inner checker.Doc
	rec   *searchRec
}

func (d *timedDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	start := time.Now()
	st := d.inner.Try(parent, path, sentence)
	d.rec.noteTry(time.Since(start), st.Status)
	return st
}

func (d *timedDoc) Root() *tactic.State { return d.inner.Root() }
func (d *timedDoc) Close() error        { return d.inner.Close() }

type timedScratchDoc struct {
	*timedDoc
	st checker.ScratchTryer
}

func (d *timedScratchDoc) TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) checker.Step {
	start := time.Now()
	st := d.st.TryScratch(parent, path, sentence, sc)
	d.rec.noteTry(time.Since(start), st.Status)
	return st
}

func (rec *searchRec) noteTry(d time.Duration, status checker.Status) {
	rec.live.calls.Add(1)
	rec.live.ns.Add(int64(d))
	switch status {
	case checker.Applied:
		rec.live.applied.Add(1)
	case checker.Rejected:
		rec.live.rejected.Add(1)
	case checker.Timeout:
		rec.live.timeout.Add(1)
	}
	rec.tryH.add(d)
}

// hist is a log-linear latency histogram: 16 linear sub-buckets per power
// of two of nanoseconds, so a bucket is at most 1/16 of its value wide.
type hist [64 * histSub]uint64

const histSub = 16

func histBin(ns int64) int {
	v := uint64(max(ns, 0))
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-3)*histSub + int(v>>(e-4)&(histSub-1))
}

// histRange returns the [lo, hi) nanoseconds bucket i covers.
func histRange(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub + 3
	w := uint64(1) << (e - 4)
	lo = float64(uint64(histSub+i%histSub) * w)
	return lo, lo + float64(w)
}

// add is safe for concurrent use: every search goroutine shares the
// tracer's histograms.
func (h *hist) add(d time.Duration) { atomic.AddUint64(&h[histBin(int64(d))], 1) }

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// within its bucket.
func (h *hist) quantile(q float64) float64 {
	var total uint64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range h {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := histRange(i)
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	lo, hi := histRange(len(h) - 1)
	return (lo + hi) / 2
}

// layers folds the trace into the per-layer metrics. sweepS is the traced
// sweep's wall time.
//
// Self times share one budget, the sweep's worker-time: the schedule's
// goroutine for the whole sweep plus the extra goroutines a span keeps
// busy. eval.self_s is the worker-time of the eval calls not covered by
// searches; core.self_s is search time not spent in Propose or Try (the
// heap, the seen set, fingerprints, the expansion pool, document set-up).
// trace.unattributed_pct is whatever no span covers.
func (t *tracer) layers(sweepS float64) map[string]float64 {
	m := map[string]float64{}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	workerTime := sweepS
	evalWorkerTime := 0.0
	for _, sp := range t.spans {
		d := sec(sp.End - sp.Start)
		workerTime += float64(sp.Workers-1) * d
		switch sp.Name {
		case "eval.grid", "eval.ablation", "eval.probe", "eval.wholeproof":
			m[sp.Name+"_s"] += d
			evalWorkerTime += float64(sp.Workers) * d
		default:
			m[sp.Name+"_s"] += d
		}
	}
	var searchNs, proposeNs, tryNs int64
	var tryCalls, applied, rejected, timeout int64
	var durs []float64
	for _, s := range t.searches {
		d := s.End - s.Start
		searchNs += d
		durs = append(durs, float64(d)/1e6)
		proposeNs += s.ProposeNs
		tryNs += s.TryNs
		m["core.queries"] += float64(s.Queries)
		m["core.expanded"] += float64(s.Expanded)
		m["core.invalid_rejected"] += float64(s.InvalidRejected)
		m["core.invalid_duplicate"] += float64(s.InvalidDuplicate)
		m["core.invalid_timeout"] += float64(s.InvalidTimeout)
		m["core."+s.Status]++
		m["model.propose_calls"] += float64(s.ProposeCalls)
		m["model.candidates"] += float64(s.Candidates)
		m["checker.newdoc_calls"] += float64(s.NewDocCalls)
		tryCalls += s.TryCalls
		applied += s.Applied
		rejected += s.Rejected
		timeout += s.Timeout
	}
	sort.Float64s(durs)
	m["core.searches"] = float64(len(t.searches))
	m["core.search_s"] = sec(searchNs)
	m["core.self_s"] = sec(searchNs - proposeNs - tryNs)
	m["core.search_ms_p50"] = quantile(durs, 0.50)
	m["core.search_ms_p99"] = quantile(durs, 0.99)
	if tryCalls > 0 {
		// Children kept over candidates examined: applied steps that were
		// not duplicates of a state already in the tree.
		m["core.useful_ratio"] = (float64(applied) - m["core.invalid_duplicate"]) / float64(tryCalls)
	}
	m["model.propose_s"] = sec(proposeNs)
	m["model.propose_us_p50"] = t.propose.quantile(0.50) / 1e3
	m["model.propose_us_p99"] = t.propose.quantile(0.99) / 1e3
	m["checker.try_calls"] = float64(tryCalls)
	m["checker.try_s"] = sec(tryNs)
	m["checker.applied"] = float64(applied)
	m["checker.rejected"] = float64(rejected)
	m["checker.timeout"] = float64(timeout)
	m["checker.try_us_p50"] = t.try.quantile(0.50) / 1e3
	m["checker.try_us_p99"] = t.try.quantile(0.99) / 1e3
	m["eval.self_s"] = evalWorkerTime - sec(searchNs)

	attributed := m["eval.self_s"] + m["core.self_s"] + m["model.propose_s"] + m["checker.try_s"] +
		m["eval.tables_s"] + m["eval.restrict_env_s"] + m["store.flush_s"] + m["store.close_s"]
	m["trace.unattributed_pct"] = 100 * (workerTime - attributed) / workerTime
	return m
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}

// write dumps every span and search record as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans    []span       `json:"spans"`
		Searches []*searchRec `json:"searches"`
	}{t.spans, t.searches})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
