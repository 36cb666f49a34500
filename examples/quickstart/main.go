// Quickstart: the whole pipeline on one theorem.
//
// Loads the embedded FSCQ-like corpus (every human proof machine-checked),
// builds a hint-setting prompt for a list lemma, and runs the paper's
// best-first tree search with the simulated GPT-4o, printing the search
// outcome and the generated proof next to the human one. It exits nonzero
// unless the search proves the lemma.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

func main() {
	log.SetFlags(0)

	// 1. Load the corpus: 14 files, three categories (Utilities, CHL,
	//    File System), every human proof checked by the kernel.
	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	fmt.Printf("corpus: %d theorems across %d files\n\n", len(c.Theorems), len(c.Files))

	// 2. Set up the paper's experiment harness: fixed 50% hint split,
	//    width 8, query limit 128.
	r := eval.NewRunner(c, 2025)

	// 3. Prove one theorem with the simulated GPT-4o in the hint setting.
	th, _ := c.TheoremNamed("app_nil_r")
	if r.HintSet[th.Name] {
		delete(r.HintSet, th.Name) // never hint a theorem with its own proof
	}
	fmt.Printf("target:    %s\nstatement: %s\n\n", th.Name, th.Stmt)

	out := r.RunTheorem(model.GPT4o, prompt.Hint, th)
	fmt.Printf("result: %s (%d model queries)\n", out.Status, out.Queries)
	if out.Status != core.Proved {
		log.Fatalf("%s not proved", th.Name)
	}
	fmt.Printf("generated proof: %s\n", out.Proof)
	fmt.Printf("human proof:     %s\n", strings.Join(strings.Fields(th.Proof), " "))
	fmt.Printf("similarity %.3f, relative length %.0f%%\n", out.Similarity, 100*out.RelLength)
}
