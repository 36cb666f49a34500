package model_test

import (
	"slices"
	"testing"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

func init() { model.RecordSearches = recordFuelouts }

// fuelouts are theorems whose hinted GPT-4o search at seed 2025 runs out of
// fuel: 128 queries each, at goals that gather hypotheses as the search
// goes deep. Such searches take most of a sweep's search time.
var fuelouts = []string{"mult_plus_distr_r", "eqb_false_cases", "split_assoc", "replay_dead_write"}

// recordFuelouts runs the sweep's hinted GPT-4o search on each of
// fuelouts, as the seed-2025 sweep runs it, and records its queries.
func recordFuelouts(t testing.TB) []model.RecordedSearch {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := eval.NewRunner(c, 2025)
	var queries []model.RecordedQuery
	r.Search = func(cfg core.Config) core.Result {
		propose := cfg.Propose
		cfg.Propose = func(st *tactic.State, path []string) []model.Candidate {
			queries = append(queries, model.RecordedQuery{State: st, Path: slices.Clone(path)})
			return propose(st, path)
		}
		return core.BestFirst(cfg)
	}
	var out []model.RecordedSearch
	for _, name := range fuelouts {
		th, ok := c.TheoremNamed(name)
		if !ok {
			t.Fatalf("no theorem %s", name)
		}
		queries = nil
		if o := r.RunTheorem(model.GPT4o, prompt.Hint, th); o.Status != core.Fuelout {
			t.Fatalf("%s: the hinted GPT-4o search is %s, want fuelout", name, o.Status)
		}
		b := prompt.Builder{Corpus: c, Setting: prompt.Hint, HintSet: r.HintSet, Window: model.GPT4o.ContextWindow}
		pr := b.Build(th)
		out = append(out, model.RecordedSearch{
			Theorem: name,
			Env:     r.RestrictEnv(th),
			Prompt:  pr,
			NGram:   model.BuildNGram(pr),
			Queries: queries,
		})
	}
	return out
}
