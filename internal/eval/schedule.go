package eval

import (
	"fmt"
	"strings"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// Verdict holds the deterministic fields of one unit's outcome: the fields
// a run's correctness digest covers. Variant tells the schedule's units of
// one theorem, model and setting apart: "std" for the grid, "reduced" and
// "whole:8" for the §4.3 probes, "ablate:w<width>/f<fuel>/<search>" for the
// ablations.
type Verdict struct {
	Theorem, Model, Setting, Variant string
	Status                           core.Status
	Queries                          int
	Proof                            string
}

// Experiments runs the paper's evaluation schedule (§4) and returns the
// rendered tables, section after section, and every unit's verdict in
// schedule order. The schedule is:
//   - the 5-profile × {vanilla, hint} grid over TestSet, through RunGrid;
//   - Figure 1a, Figure 1b, Table 1 for GPT-4o, Table 2 and Figure 2;
//   - the §4.3 reduced-context probe and whole-proof probe;
//   - 12 ablation sweeps over width, query limit and search algorithm, each
//     on a copy of r.
//
// A runner from NewRunner(c, N) renders the committed
// sweepbench/testdata/tables-seedN.txt for each sampling seed N there.
func (r *Runner) Experiments() (tables string, verdicts []Verdict) {
	s := &schedule{r: r}
	test := r.TestSet()
	s.section(fmt.Sprintf("corpus: %d theorems, %d in hint set, %d evaluated\n",
		len(r.Corpus.Theorems), len(r.Corpus.Theorems)-len(test), len(test)))

	var jobs []GridJob
	for _, prof := range model.Paper() {
		for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			jobs = append(jobs, GridJob{Profile: prof, Setting: setting, Theorems: test})
		}
	}
	sweep := NewSweep()
	for i, outs := range r.RunGrid(jobs) {
		sweep.Add(jobs[i].Profile.Name, jobs[i].Setting.String(), outs)
		s.record("std", outs...)
	}
	s.section(sweep.Figure1a())
	s.section(sweep.Figure1b())
	s.section(sweep.Table1(model.GPT4o.Name))
	s.section(sweep.Table2())
	s.section(sweep.Figure2(r.Corpus, 3))

	// hinted[i] is the outcome of test[i]: RunGrid keeps theorem order.
	hinted := sweep.ByModel[model.GPT4o.Name][prompt.Hint.String()]
	s.section(s.probe(test, hinted))
	s.section(s.wholeProof(test, hinted))
	s.section(s.ablations(test))
	return s.out.String(), s.verdicts
}

// schedule accumulates one Experiments run's output.
type schedule struct {
	r        *Runner
	out      strings.Builder
	verdicts []Verdict
}

// section appends one rendered section and the blank line that ends it.
func (s *schedule) section(text string) {
	s.out.WriteString(text)
	s.out.WriteByte('\n')
}

// record appends the verdicts of outs, labelled with variant.
func (s *schedule) record(variant string, outs ...Outcome) {
	for _, o := range outs {
		s.verdicts = append(s.verdicts, Verdict{
			Theorem: o.Theorem, Model: o.Model, Setting: o.Setting, Variant: variant,
			Status: o.Status, Queries: o.Queries, Proof: o.Proof,
		})
	}
}

// probe reproduces §4.3's context-selection probe: the short theorems
// (human proof under 16 tokens) that hinted GPT-4o failed are re-run with a
// hand-reduced, dependency-only context.
func (s *schedule) probe(test []*corpus.Theorem, hinted []Outcome) string {
	var b strings.Builder
	b.WriteString("§4.3 probe: failed short theorems, full vs reduced context (GPT-4o, hints)\n\n")
	tried, recovered := 0, 0
	for i, o := range hinted {
		if o.Status == core.Proved || o.HumanTokens >= 16 {
			continue
		}
		tried++
		red := s.r.RunReduced(model.GPT4o, prompt.Hint, test[i])
		s.record("reduced", red)
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

// wholeProof reproduces §4.3's observation that whole-proof generation,
// with no proof-assistant interaction, falls far short of best-first search
// at a comparable budget.
func (s *schedule) wholeProof(test []*corpus.Theorem, hinted []Outcome) string {
	whole := make([]Outcome, len(test))
	for i, th := range test {
		whole[i] = s.r.RunWholeProof(model.GPT4o, prompt.Hint, th, 8)
	}
	s.record("whole:8", whole...)
	wp, wn := coverage(whole)
	bp, bn := coverage(hinted)
	return fmt.Sprintf("§4.3 whole-proof generation vs best-first (GPT-4o, hints)\n\n"+
		"  whole-proof (8 samples each): %d/%d proved (%.1f%%)\n"+
		"  best-first  (width %d, fuel %d): %d/%d proved (%.1f%%)\n",
		wp, wn, pct(wp, wn), s.r.Width, s.r.QueryLimit, bp, bn, pct(bp, bn))
}

// ablations sweeps the design choices DESIGN.md calls out: search width,
// query limit, and algorithm (best-first vs linear vs greedy).
func (s *schedule) ablations(test []*corpus.Theorem) string {
	// run sweeps hinted GPT-4o on a copy of the runner and renders its
	// coverage and average queries per proof.
	run := func(width, fuel int, name string, search func(core.Config) core.Result) string {
		rr := *s.r
		rr.Width, rr.QueryLimit = width, fuel
		// Name the algorithm so ablation outcomes are persistable: the
		// outcome key cannot fingerprint an anonymous func.
		rr.Search, rr.SearchName = search, name
		outs := rr.RunSweep(model.GPT4o, prompt.Hint, test)
		s.record(fmt.Sprintf("ablate:w%d/f%d/%s", width, fuel, name), outs...)
		p, n := coverage(outs)
		q := 0
		for _, o := range outs {
			if o.Status == core.Proved {
				q += o.Queries
			}
		}
		avgQ := 0.0
		if p > 0 {
			avgQ = float64(q) / float64(p)
		}
		return fmt.Sprintf("coverage %5.1f%%, avg queries per proof %.1f\n", pct(p, n), avgQ)
	}

	var b strings.Builder
	b.WriteString("Ablations (GPT-4o, hints)\n\n")
	b.WriteString("width sweep (fuel=128, best-first):\n")
	for _, w := range []int{1, 2, 4, 8, 16} {
		fmt.Fprintf(&b, "  width %2d: %s", w, run(w, 128, "", nil))
	}
	b.WriteString("query-limit sweep (width=8, best-first):\n")
	for _, f := range []int{32, 64, 128, 256} {
		fmt.Fprintf(&b, "  fuel %3d: %s", f, run(8, f, "", nil))
	}
	b.WriteString("algorithm (width=8, fuel=128):\n")
	for _, alg := range []struct {
		label, name string
		search      func(core.Config) core.Result
	}{{"best-first", "best-first", core.BestFirst}, {"linear (Rango-style)", "linear", core.Linear}, {"greedy", "greedy", core.Greedy}} {
		fmt.Fprintf(&b, "  %-22s %s", alg.label, run(8, 128, alg.name, alg.search))
	}
	return b.String()
}
