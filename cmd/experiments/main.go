// Command experiments regenerates every table and figure of the paper's
// evaluation section against the embedded corpus: Figure 1a/1b, Table 1,
// Table 2, the Figure 2 case studies, the §4.3 reduced-context probe, and
// the search ablations.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
	"llmfscq/internal/store"
)

func main() {
	log.SetFlags(0)
	var (
		fig1a  = flag.Bool("fig1a", false, "Figure 1a: coverage by proof-length bin")
		fig1b  = flag.Bool("fig1b", false, "Figure 1b: 1M vs 128k context")
		table1 = flag.Bool("table1", false, "Table 1: coverage by category")
		table2 = flag.Bool("table2", false, "Table 2: outcome rates and metrics")
		fig2   = flag.Bool("fig2", false, "Figure 2: concise-proof case studies")
		probe  = flag.Bool("probe", false, "§4.3 reduced-context probe")
		whole  = flag.Bool("wholeproof", false, "§4.3 whole-proof generation vs best-first")
		ablate = flag.Bool("ablate", false, "search ablations (width, fuel, algorithm)")
		all    = flag.Bool("all", false, "run everything")

		seed             = flag.Int64("seed", 2025, "experiment seed")
		queryLimit       = flag.Int("fuel", 128, "model query limit")
		width            = flag.Int("width", 8, "search width")
		parallelism      = flag.Int("parallelism", runtime.NumCPU(), "bound on concurrent searches across the whole grid")
		proofCache       = flag.String("proof-cache", "", "directory of the persistent proof-outcome store: warm re-runs at the same corpus/seed/hyperparameters skip whole searches (tables are byte-identical warm or cold)")
		proofCacheMirror = flag.Int("proof-cache-mirror", 16, "cross-check roughly one in N warm proof-cache hits against a live recomputation (0 disables; any mismatch aborts the run)")
		cpuprofile       = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile       = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		paperSamp        = flag.Bool("paper-sampling", false, "evaluate large models on a 10% subsample, as the paper does for budget reasons")
		only             = flag.String("model", "", "restrict to models whose name contains this substring")

		backend     = flag.String("backend", "inprocess", "tactic execution backend: inprocess, or remote (wire protocol against checkerd, mirror-checked)")
		checkerd    = flag.String("checkerd", "", "checkerd address for -backend=remote (empty: spawn an in-process server on a loopback port)")
		faults      = flag.String("faults", "", "fault-injection schedule for -backend=remote, e.g. \"drop-conn=0.05,stall=0.02\" (sites: "+faultSites()+")")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		wireTimeout = flag.Duration("wire-timeout", 5*time.Second, "per-request deadline for -backend=remote (the paper's per-tactic budget, must be positive); injected stalls block for twice this")
	)
	flag.Parse()
	if !(*fig1a || *fig1b || *table1 || *table2 || *fig2 || *probe || *whole || *ablate) {
		*all = true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}()

	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	r := eval.NewRunner(c, *seed)
	r.QueryLimit = *queryLimit
	r.Width = *width
	r.Parallelism = *parallelism
	var pc *store.Cache
	if *proofCache != "" {
		files, err := corpus.Sources()
		if err != nil {
			log.Fatalf("proof-cache: hashing corpus: %v", err)
		}
		pc, err = store.OpenCache(store.CacheConfig{
			Dir:        *proofCache,
			CorpusHash: corpus.Hash(files),
			MirrorDen:  *proofCacheMirror,
		})
		if err != nil {
			log.Fatalf("proof-cache: %v", err)
		}
		r.ProofStore = pc
	}
	finishBackend := setupBackend(r, *backend, *checkerd, *faults, *faultSeed, *wireTimeout)
	defer finishBackend()
	defer func() {
		// One structured cache-stats line covers both tiers (the in-memory
		// outcome tier and the persistent store).
		r.FlushProofStore()
		fmt.Fprintln(os.Stderr, r.CacheStatsJSON())
		if pc != nil {
			if err := pc.Close(); err != nil {
				log.Fatalf("proof-cache: %v", err)
			}
		}
		if n := r.ProofStoreMismatches(); n > 0 {
			log.Fatalf("proof-cache: %d mirror mismatches — persisted results disagree with live recomputation", n)
		}
		if hits, misses := kernel.InternStats(); hits+misses > 0 {
			fmt.Fprintf(os.Stderr, "intern: hits=%d misses=%d (%.1f%% hit rate)\n",
				hits, misses, 100*float64(hits)/float64(hits+misses))
		}
	}()

	test := r.TestSet()
	fmt.Printf("corpus: %d theorems, %d in hint set, %d evaluated\n\n",
		len(c.Theorems), len(c.Theorems)-len(test), len(test))

	// Assemble the full (model, setting) × theorem matrix up front and fan
	// it through one bounded worker pool, instead of running sweep after
	// sweep and draining the pool at each boundary. Outcomes are placed at
	// fixed coordinates, so the tables are byte-identical to the sequential
	// schedule.
	sweep := eval.NewSweep()
	profiles := model.Paper()
	large := map[string]bool{"GPT-4o": true, "Gemini 1.5 Pro": true, "Gemini 1.5 Pro (128k context)": true}
	var jobs []eval.GridJob
	for _, prof := range profiles {
		if *only != "" && !strings.Contains(prof.Name, *only) {
			continue
		}
		ths := test
		if *paperSamp && large[prof.Name] {
			ths = r.Subsample(test, 0.10)
		}
		for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			jobs = append(jobs, eval.GridJob{Profile: prof, Setting: setting, Theorems: ths})
		}
	}
	for i, outs := range r.RunGrid(jobs) {
		sweep.Add(jobs[i].Profile.Name, jobs[i].Setting.String(), outs)
		fmt.Fprintf(os.Stderr, "ran %-30s %-8s (%d theorems)\n", jobs[i].Profile.Name, jobs[i].Setting, len(jobs[i].Theorems))
	}
	fmt.Fprintln(os.Stderr)

	if *all || *fig1a {
		fmt.Println(sweep.Figure1a())
	}
	if *all || *fig1b {
		fmt.Println(sweep.Figure1b())
	}
	if *all || *table1 {
		fmt.Println(sweep.Table1("GPT-4o"))
	}
	if *all || *table2 {
		fmt.Println(sweep.Table2())
	}
	if *all || *fig2 {
		fmt.Println(sweep.Figure2(c, 3))
	}
	if *all || *probe {
		fmt.Println(runProbe(r, sweep, c))
	}
	if *all || *whole {
		fmt.Println(runWholeProof(r, sweep))
	}
	if *all || *ablate {
		fmt.Println(runAblations(r, c))
	}
}

// faultSites renders the fault-site registry for the -faults usage string.
func faultSites() string {
	var names []string
	for _, s := range faultpoint.Sites() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}

// setupBackend wires the requested execution backend into the runner and
// returns the end-of-run hook: it reports the wire statistics and aborts
// the process if any semantic wire/mirror mismatch was confirmed — faults
// may be injected, but the two checkers disagreeing about logic must never
// pass silently.
func setupBackend(r *eval.Runner, kind, checkerdAddr, faultSpec string, faultSeed int64, wireTimeout time.Duration) func() {
	switch kind {
	case "inprocess":
		if faultSpec != "" {
			log.Fatalf("-faults requires -backend=remote")
		}
		return func() {}
	case "remote":
	default:
		log.Fatalf("unknown -backend %q (want inprocess or remote)", kind)
	}

	if wireTimeout <= 0 {
		log.Fatalf("-wire-timeout must be positive, got %v", wireTimeout)
	}
	plan, err := faultpoint.ParsePlan(faultSeed, faultSpec)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}
	addr := checkerdAddr
	if addr == "" {
		srv := protocol.NewServer(r.Corpus.Env)
		if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			log.Fatalf("spawning checkerd: %v", err)
		}
		go srv.Serve() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "backend: remote via in-process checkerd on %s\n", addr)
	} else {
		// Dial once up front: against an unreachable daemon every document
		// would pay a failed dial and run local-only, and a run that
		// checked nothing on the wire would pass.
		conn, err := net.DialTimeout("tcp", addr, protocol.DefaultDialTimeout)
		if err != nil {
			log.Fatalf("backend: checkerd at %s is unreachable: %v", addr, err)
		}
		conn.Close()
		fmt.Fprintf(os.Stderr, "backend: remote via checkerd at %s\n", addr)
	}
	be := remote.New(addr, wireTimeout)
	be.Plan = plan
	if plan != nil {
		fmt.Fprintf(os.Stderr, "backend: fault schedule %s (seed %d)\n", plan, faultSeed)
	}
	r.Backend = be
	return func() {
		fmt.Fprintf(os.Stderr, "backend: %s\n", be.Stats.Snapshot())
		if plan != nil {
			var hits []string
			for _, s := range faultpoint.Sites() {
				hits = append(hits, fmt.Sprintf("%s=%d", s, plan.Hits(s)))
			}
			fmt.Fprintf(os.Stderr, "backend: fault hits %s\n", strings.Join(hits, " "))
		}
		if n := be.Stats.Mismatches.Load(); n > 0 {
			log.Fatalf("backend: %d semantic wire/mirror mismatches — remote checker disagrees with the in-process checker", n)
		}
	}
}

// runProbe reproduces §4.3: take short theorems (human proof < 16 tokens)
// that the hinted GPT-4o run failed, and re-run them with a hand-reduced
// dependency-only context.
func runProbe(r *eval.Runner, sweep *eval.Sweep, c *corpus.Corpus) string {
	var b strings.Builder
	b.WriteString("§4.3 probe: failed short theorems, full vs reduced context (GPT-4o, hints)\n\n")
	outs := sweep.ByModel["GPT-4o"]["hint"]
	if len(outs) == 0 {
		return b.String() + "(GPT-4o hint sweep not run)\n"
	}
	tried, recovered := 0, 0
	for _, o := range outs {
		if o.Status == core.Proved || o.HumanTokens >= 16 {
			continue
		}
		th, ok := c.TheoremNamed(o.Theorem)
		if !ok {
			continue
		}
		tried++
		red := r.RunReduced(model.GPT4o, prompt.Hint, th)
		mark := "still fails"
		if red.Status == core.Proved {
			recovered++
			mark = "PROVED with reduced context"
		}
		fmt.Fprintf(&b, "  %-28s %s\n", o.Theorem, mark)
	}
	if tried == 0 {
		b.WriteString("  (no failed theorems under 16 tokens)\n")
	} else {
		fmt.Fprintf(&b, "\nreduced context recovered %d/%d failed short theorems\n", recovered, tried)
	}
	return b.String()
}

// runWholeProof reproduces the paper's §4.3 observation that whole-proof
// generation without proof-assistant interaction falls far short of
// best-first tactic search at comparable budgets.
func runWholeProof(r *eval.Runner, sweep *eval.Sweep) string {
	var b strings.Builder
	b.WriteString("§4.3 whole-proof generation vs best-first (GPT-4o, hints)\n\n")
	ths := r.TestSet()
	proved := 0
	for _, th := range ths {
		out := r.RunWholeProof(model.GPT4o, prompt.Hint, th, 8)
		if out.Status == core.Proved {
			proved++
		}
	}
	bfProved := 0
	for _, o := range sweep.ByModel["GPT-4o"]["hint"] {
		if o.Status == core.Proved {
			bfProved++
		}
	}
	fmt.Fprintf(&b, "  whole-proof (8 samples each): %d/%d proved (%.1f%%)\n",
		proved, len(ths), 100*float64(proved)/float64(len(ths)))
	if n := len(sweep.ByModel["GPT-4o"]["hint"]); n > 0 {
		fmt.Fprintf(&b, "  best-first  (width 8, fuel 128): %d/%d proved (%.1f%%)\n",
			bfProved, n, 100*float64(bfProved)/float64(n))
	}
	return b.String()
}

// runAblations sweeps the design choices DESIGN.md calls out: search width,
// query limit, and algorithm (best-first vs linear vs greedy).
func runAblations(r *eval.Runner, c *corpus.Corpus) string {
	var b strings.Builder
	b.WriteString("Ablations (GPT-4o, hints)\n\n")
	ths := r.TestSet()

	run := func(width, fuel int, name string, search func(core.Config) core.Result) (float64, float64) {
		rr := *r
		rr.Width = width
		rr.QueryLimit = fuel
		rr.Search = search
		// Name the algorithm so ablation outcomes are persistable: the
		// proof-cache key cannot fingerprint an anonymous func.
		rr.SearchName = name
		outs := rr.RunSweep(model.GPT4o, prompt.Hint, ths)
		p, q := 0, 0
		for _, o := range outs {
			if o.Status == core.Proved {
				p++
				q += o.Queries
			}
		}
		avgQ := 0.0
		if p > 0 {
			avgQ = float64(q) / float64(p)
		}
		return 100 * float64(p) / float64(len(outs)), avgQ
	}

	b.WriteString("width sweep (fuel=128, best-first):\n")
	for _, w := range []int{1, 2, 4, 8, 16} {
		cov, q := run(w, 128, "", nil)
		fmt.Fprintf(&b, "  width %2d: coverage %5.1f%%, avg queries per proof %.1f\n", w, cov, q)
	}
	b.WriteString("query-limit sweep (width=8, best-first):\n")
	for _, f := range []int{32, 64, 128, 256} {
		cov, q := run(8, f, "", nil)
		fmt.Fprintf(&b, "  fuel %3d: coverage %5.1f%%, avg queries per proof %.1f\n", f, cov, q)
	}
	b.WriteString("algorithm (width=8, fuel=128):\n")
	for _, alg := range []struct {
		name string
		key  string
		fn   func(core.Config) core.Result
	}{{"best-first", "best-first", core.BestFirst}, {"linear (Rango-style)", "linear", core.Linear}, {"greedy", "greedy", core.Greedy}} {
		cov, q := run(8, 128, alg.key, alg.fn)
		fmt.Fprintf(&b, "  %-22s coverage %5.1f%%, avg queries per proof %.1f\n", alg.name, cov, q)
	}
	return b.String()
}
