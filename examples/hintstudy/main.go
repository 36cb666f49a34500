// Hintstudy: a miniature of the paper's central finding.
//
// Runs the best-first search with the simulated GPT-4o over the test-set
// theorems of ListUtils.v and Log.v in both prompt settings, showing
// per-theorem how hints (human proofs of other theorems in the prompt)
// change the outcome — the effect the paper's Figure 1 aggregates.
//
//	go run ./examples/hintstudy
package main

import (
	"fmt"
	"log"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

func main() {
	log.SetFlags(0)
	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	r := eval.NewRunner(c, 2025)
	r.Parallelism = 4

	var targets []*corpus.Theorem
	for _, th := range r.TestSet() {
		if th.File == "ListUtils" || th.File == "Log" {
			targets = append(targets, th)
		}
	}
	fmt.Printf("ListUtils/Log theorems under evaluation: %d (model: %s)\n\n", len(targets), model.GPT4o.Name)

	vanilla := r.RunSweep(model.GPT4o, prompt.Vanilla, targets)
	hinted := r.RunSweep(model.GPT4o, prompt.Hint, targets)

	fmt.Printf("%-28s %-10s %-10s\n", "THEOREM", "VANILLA", "HINTED")
	vp, hp := 0, 0
	for i, th := range targets {
		fmt.Printf("%-28s %-10s %-10s\n", th.Name, vanilla[i].Status, hinted[i].Status)
		if vanilla[i].Status == core.Proved {
			vp++
		}
		if hinted[i].Status == core.Proved {
			hp++
		}
	}
	fmt.Printf("\ncoverage: %d/%d vanilla -> %d/%d with hints\n", vp, len(targets), hp, len(targets))
	for i, th := range targets {
		if vanilla[i].Status != core.Proved && hinted[i].Status == core.Proved {
			fmt.Printf("\nunlocked by hints: %s\n  proof: %s\n", th.Name, hinted[i].Proof)
		}
	}
}
