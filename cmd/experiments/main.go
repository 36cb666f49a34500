// Command experiments regenerates every table and figure of the paper's
// evaluation section against the embedded corpus: Figure 1a/1b, Table 1,
// Table 2, the Figure 2 case studies, the §4.3 reduced-context and
// whole-proof probes, and the search ablations (eval.Runner.Experiments).
// It prints the tables on stdout and its statistics on stderr.
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

	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
	"llmfscq/internal/store"
)

// mirrorDen sets the proof store's mirror sample: about one in 16 warm hits
// is re-searched live and compared with the record, and a mismatch aborts
// the run.
const mirrorDen = 16

func main() {
	log.SetFlags(0)
	var (
		seed        = flag.Int64("seed", 2025, "sampling seed (the hint split is the paper's at every seed)")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "bound on concurrent searches across the whole grid")
		proofCache  = flag.String("proof-cache", "", "directory of the persistent proof-outcome store: warm re-runs at the same corpus/seed/hyperparameters skip whole searches (tables are byte-identical warm or cold)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")

		backend     = flag.String("backend", "inprocess", "tactic execution backend: inprocess, or remote (wire protocol against checkerd, mirror-checked)")
		checkerd    = flag.String("checkerd", "", "checkerd address for -backend=remote (empty: spawn an in-process server on a loopback port)")
		faults      = flag.String("faults", "", "fault-injection schedule for -backend=remote, e.g. \"drop-conn=0.05,stall=0.02\" (sites: "+faultSites()+")")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		wireTimeout = flag.Duration("wire-timeout", 5*time.Second, "per-request deadline for -backend=remote (the paper's per-tactic budget, must be positive); injected stalls block for twice this")
	)
	flag.Parse()

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
			MirrorDen:  mirrorDen,
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

	tables, _ := r.Experiments()
	fmt.Print(tables)
}

// faultSites renders the fault-site registry for the -faults usage string.
func faultSites() string {
	var names []string
	for _, s := range faultpoint.Sites() {
		names = append(names, s.String())
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
