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
	"os"
	"runtime"
	"runtime/pprof"

	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
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
