// Command sweepbench runs one fresh-process `cmd/experiments -all` sweep
// for the repository benchmark and prints its measurements as one JSON
// line. run.py drives it: one process per sweep, because the kernel's
// intern arena and identity memos are process-global and a second sweep in
// the same process would start warm.
//
//	sweepbench -seed 2025 [-store DIR] [-trace FILE] [-out FILE] [-verdicts FILE]
//	sweepbench -setup-only [-store DIR]
//	sweepbench -canary
//
// The hint split is fixed at the paper's seed; -seed is the sampling seed
// every unit's model RNG derives from. At seed 2025 the sweep is exactly
// `cmd/experiments -all`.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
)

// splitSeed fixes the 50% hint split: the paper keeps one random split
// across all experiments, and a split drawn per seed changes which
// theorems are evaluated and so the amount of work by ±20%.
const splitSeed = 2025

// mirrorDen is cmd/experiments' -proof-cache-mirror default.
const mirrorDen = 16

// result is the JSON line one sweep process prints.
type result struct {
	Units        int                `json:"units"`
	Proved       int                `json:"proved"`
	ReplayFailed int                `json:"replay_failed"`
	Mismatches   int64              `json:"mirror_mismatches"`
	Digest       string             `json:"digest"`
	Metrics      map[string]float64 `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	var (
		seed       = flag.Int64("seed", 2025, "sampling seed")
		storeDir   = flag.String("store", "", "proof store directory (empty: no store)")
		traceOut   = flag.String("trace", "", "trace the sweep and write its spans to this file (empty: untraced)")
		outFile    = flag.String("out", "", "write the rendered tables to this file")
		verdictOut = flag.String("verdicts", "", "write one line per verdict to this file")
		setupOnly  = flag.Bool("setup-only", false, "measure set-up alone: load the corpus, build the runner, open and close the store")
		canary     = flag.Bool("canary", false, "time the fixed CPU-only host canary loop and exit")
	)
	flag.Parse()
	if *canary {
		fmt.Printf("%.4f\n", canaryMs())
		return
	}
	var res *result
	var err error
	if *setupOnly {
		res, err = runSetupOnly(*seed, *storeDir)
	} else {
		res, err = runSweep(*seed, *storeDir, *traceOut, *outFile, *verdictOut)
	}
	if err != nil {
		log.Fatalf("sweepbench: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatalf("sweepbench: %v", err)
	}
	fmt.Println(string(b))
}

// setup is what every sweep does before its clock starts, as
// cmd/experiments does it: load the corpus, build the runner at CLI
// defaults (Parallelism = NumCPU), and open the proof store when one is
// used. It records setup_s and its parts in m.
func setup(seed int64, storeDir string, m map[string]float64) (*corpus.Corpus, *eval.Runner, *store.Cache, error) {
	start := time.Now()
	c, err := corpus.Default()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading corpus: %w", err)
	}
	m["corpus.load_s"] = time.Since(start).Seconds()
	r := eval.NewRunner(c, splitSeed)
	r.Seed = seed
	r.Parallelism = runtime.NumCPU()
	var pc *store.Cache
	if storeDir != "" {
		open := time.Now()
		files, err := corpus.Sources()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("hashing corpus: %w", err)
		}
		pc, err = store.OpenCache(store.CacheConfig{Dir: storeDir, CorpusHash: corpus.Hash(files), MirrorDen: mirrorDen})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("opening proof store: %w", err)
		}
		r.ProofStore = pc
		m["store.open_s"] = time.Since(open).Seconds()
	}
	m["setup_s"] = time.Since(start).Seconds()
	return c, r, pc, nil
}

func runSetupOnly(seed int64, storeDir string) (*result, error) {
	m := map[string]float64{}
	_, _, pc, err := setup(seed, storeDir, m)
	if err != nil {
		return nil, err
	}
	if pc != nil {
		if err := pc.Close(); err != nil {
			return nil, fmt.Errorf("closing proof store: %w", err)
		}
	}
	return &result{Metrics: m}, nil
}

func runSweep(seed int64, storeDir, traceOut, outFile, verdictOut string) (*result, error) {
	m := map[string]float64{}
	var tr *tracer
	if traceOut != "" {
		tr = newTracer()
	}
	c, r, pc, err := setup(seed, storeDir, m)
	if err != nil {
		return nil, err
	}

	before := snapshot()
	start := time.Now()
	s := &schedule{r: r, c: c, tr: tr}
	s.run()
	if pc != nil {
		tr.span("store.flush", "", 1, r.FlushProofStore)
		st := pc.Stats()
		m["store.outcome_hits"] = float64(st.OutcomeHits)
		m["store.outcome_misses"] = float64(st.OutcomeMisses)
		m["store.mirror_checks"] = float64(st.MirrorChecks)
		m["store.recorded"] = float64(st.Recorded)
		m["store.dropped"] = float64(st.Dropped)
		m["store.disk_bytes"] = float64(st.Store.DiskBytes)
		var cerr error
		tr.span("store.close", "", 1, func() { cerr = pc.Close() })
		if cerr != nil {
			return nil, fmt.Errorf("closing proof store: %w", cerr)
		}
	}
	sweepS := time.Since(start).Seconds()
	after := snapshot()

	m["sweep_s"] = sweepS
	m["units"] = float64(len(s.verdicts))
	m["units_per_s"] = float64(len(s.verdicts)) / sweepS
	m["cpu_s"] = after.cpu - before.cpu
	m["runtime.alloc_mb"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20)
	m["runtime.mallocs"] = float64(after.mem.Mallocs - before.mem.Mallocs)
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / m["cpu_s"]
	m["kernel.intern_hits"] = float64(after.internHits - before.internHits)
	m["kernel.intern_misses"] = float64(after.internMisses - before.internMisses)
	hits, misses, _, _ := r.TryCacheStats()
	m["core.trycache_hits"] = float64(hits)
	m["core.trycache_misses"] = float64(misses)

	res := &result{Units: len(s.verdicts), Mismatches: r.ProofStoreMismatches(), Metrics: m}
	replayStart := time.Now()
	res.Proved, res.ReplayFailed = replay(r, c, s.verdicts)
	m["oracle.replay_s"] = time.Since(replayStart).Seconds()
	res.Digest = digest(s.verdicts)

	if outFile != "" {
		if err := os.WriteFile(outFile, []byte(s.out.String()), 0o644); err != nil {
			return nil, err
		}
	}
	if verdictOut != "" {
		var b strings.Builder
		for _, v := range s.verdicts {
			b.WriteString(v.line())
		}
		if err := os.WriteFile(verdictOut, []byte(b.String()), 0o644); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		for k, v := range tr.layers(sweepS) {
			m[k] = v
		}
		promptPass(r, c, s.verdicts, m)
		if err := tr.write(traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// replay checks every Proved verdict the way PALM and CoqPilot count a
// proof: the kernel must accept the final script in the theorem's
// restricted environment.
func replay(r *eval.Runner, c *corpus.Corpus, vs []verdict) (proved, failed int) {
	for _, v := range vs {
		if v.Status != core.Proved {
			continue
		}
		proved++
		th, ok := c.TheoremNamed(v.Theorem)
		if !ok || tactic.CheckProof(r.RestrictEnv(th), th.Stmt, v.Proof) != nil {
			failed++
		}
	}
	return proved, failed
}

// digest hashes every verdict's deterministic fields in schedule order.
func digest(vs []verdict) string {
	h := sha256.New()
	for _, v := range vs {
		h.Write([]byte(v.line()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// promptPass times the prompt layer on its own, outside the sweep: a fresh
// item cache, then one Builder.Build per unit the sweep ran (reduced-context
// units use ReducedContext). Inside the sweep the same work is part of
// eval.self_s.
func promptPass(r *eval.Runner, c *corpus.Corpus, vs []verdict, m map[string]float64) {
	start := time.Now()
	cache := prompt.NewCache(c, r.HintSet)
	m["prompt.cache_build_s"] = time.Since(start).Seconds()
	windows := map[string]int{}
	for _, p := range model.Paper() {
		windows[p.Name] = p.ContextWindow
	}
	var calls, tokens int
	var buildNs time.Duration
	for _, v := range vs {
		th, ok := c.TheoremNamed(v.Theorem)
		if !ok {
			continue
		}
		setting := prompt.Vanilla
		if strings.HasPrefix(v.Setting, "hint") {
			setting = prompt.Hint
		}
		b := prompt.Builder{Corpus: c, Setting: setting, HintSet: r.HintSet, Window: windows[v.Model], Cache: cache}
		t := time.Now()
		var p *prompt.Prompt
		if v.Variant == "reduced" {
			p = b.ReducedContext(th)
		} else {
			p = b.Build(th)
		}
		buildNs += time.Since(t)
		calls++
		tokens += p.TotalTokens
	}
	m["prompt.build_calls"] = float64(calls)
	m["prompt.build_s"] = buildNs.Seconds()
	m["prompt.tokens"] = float64(tokens)
}

// procSnapshot holds the process counters read at the sweep's edges.
type procSnapshot struct {
	cpu                      float64
	gcCPU                    float64
	mem                      runtime.MemStats
	internHits, internMisses uint64
}

func snapshot() procSnapshot {
	var s procSnapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = tv(ru.Utime) + tv(ru.Stime)
	}
	runtime.ReadMemStats(&s.mem)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	s.internHits, s.internMisses = kernel.InternStats()
	return s
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// canaryMs times a fixed CPU-only loop (FNV hashing, no allocation, no
// I/O) and returns the median of five repetitions in milliseconds. Taken
// before and after each benchmark run, it shows a host that got faster or
// slower independently of the code under test.
func canaryMs() float64 {
	var buf [64]byte
	times := make([]float64, 5)
	for i := range times {
		start := time.Now()
		h := fnv.New64a()
		for j := 0; j < 400_000; j++ {
			buf[j%len(buf)] = byte(j)
			h.Write(buf[:])
		}
		sink += h.Sum64()
		times[i] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

var sink uint64
