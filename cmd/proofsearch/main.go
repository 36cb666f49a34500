// Command proofsearch runs the best-first LLM proof search on one corpus
// theorem and reports the outcome, the generated proof, and how it compares
// to the human proof — a single-theorem slice of the paper's pipeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tokenizer"
)

func main() {
	log.SetFlags(0)
	var (
		theorem   = flag.String("theorem", "", "corpus theorem to prove (empty: list all)")
		modelName = flag.String("model", "GPT-4o", "model profile (substring match)")
		setting   = flag.String("setting", "hint", "prompt setting: vanilla or hint")
		seed      = flag.Int64("seed", 2025, "sampling seed")
		fuel      = flag.Int("fuel", 128, "model query limit")
		width     = flag.Int("width", 8, "search width")
		reduced   = flag.Bool("reduced", false, "use the §4.3 dependency-reduced context")
	)
	flag.Parse()
	set, err := parseSetting(*setting)
	if err == nil {
		err = checkBudget("fuel", *fuel)
	}
	if err == nil {
		err = checkBudget("width", *width)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	if *theorem == "" {
		fmt.Printf("%-30s %-10s %-12s %s\n", "THEOREM", "FILE", "CATEGORY", "HUMAN TOKENS")
		for _, th := range c.Theorems {
			fmt.Printf("%-30s %-10s %-12s %d\n", th.Name, th.File, th.Category, tokenizer.Count(th.Proof))
		}
		return
	}
	th, ok := c.TheoremNamed(*theorem)
	if !ok {
		log.Fatalf("unknown theorem %q (run without -theorem to list)", *theorem)
	}
	var prof model.Profile
	found := false
	for _, p := range model.Paper() { // exact name wins
		if strings.EqualFold(p.Name, *modelName) {
			prof, found = p, true
			break
		}
	}
	if !found {
		for _, p := range model.Paper() {
			if strings.Contains(strings.ToLower(p.Name), strings.ToLower(*modelName)) {
				prof, found = p, true
				break
			}
		}
	}
	if !found {
		log.Fatalf("unknown model %q", *modelName)
	}

	r := eval.NewRunner(c, *seed)
	r.QueryLimit = *fuel
	r.Width = *width
	if r.HintSet[th.Name] && set == prompt.Hint {
		fmt.Println("note: this theorem is in the hint set; its own proof is excluded from the prompt")
		delete(r.HintSet, th.Name)
	}

	var out eval.Outcome
	if *reduced {
		out = r.RunReduced(prof, set, th)
	} else {
		out = r.RunTheorem(prof, set, th)
	}

	fmt.Printf("theorem:   %s (%s, %s)\n", th.Name, th.File, th.Category)
	fmt.Printf("statement: %s\n", th.Stmt)
	fmt.Printf("model:     %s, setting %s, width %d, fuel %d\n", prof.Name, set, *width, *fuel)
	fmt.Printf("result:    %s after %d queries\n", out.Status, out.Queries)
	if out.Status == core.Proved {
		fmt.Printf("proof:     %s\n", out.Proof)
		fmt.Printf("human:     %s\n", strings.Join(strings.Fields(th.Proof), " "))
		fmt.Printf("tokens:    generated %d vs human %d; similarity %.3f\n",
			out.GenTokens, out.HumanTokens, out.Similarity)
	}
}

// parseSetting reads the -setting flag: exactly "vanilla" or "hint".
func parseSetting(s string) (prompt.Setting, error) {
	switch s {
	case "vanilla":
		return prompt.Vanilla, nil
	case "hint":
		return prompt.Hint, nil
	}
	return 0, fmt.Errorf("unknown -setting %q (want vanilla or hint)", s)
}

// checkBudget rejects a non-positive -fuel or -width: the search would run
// at its default budget instead, while the report printed the flag's value.
func checkBudget(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}
