package main

import (
	"fmt"
	"strings"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// verdict holds the deterministic fields of one unit's outcome: the fields
// the correctness digest covers.
type verdict struct {
	Theorem, Model, Setting, Variant string
	Status                           core.Status
	Queries                          int
	Proof                            string
}

func (v verdict) line() string {
	return fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%d\t%s\n", v.Theorem, v.Model, v.Setting, v.Variant, v.Status, v.Queries, v.Proof)
}

// schedule is the `cmd/experiments -all` schedule, run in-process through
// eval's public API: the 5-profile × {vanilla, hint} grid, the table
// renderings, the §4.3 reduced-context and whole-proof probes, and the 12
// ablation sweeps. Its rendered output must equal the command's stdout
// byte for byte (the seed-2025 golden file checks this), so the copy here
// cannot drift from cmd/experiments/main.go unnoticed.
type schedule struct {
	r  *eval.Runner
	c  *corpus.Corpus
	tr *tracer // nil: untraced

	out      strings.Builder
	verdicts []verdict
}

func (s *schedule) record(variant string, outs ...eval.Outcome) {
	for _, o := range outs {
		s.verdicts = append(s.verdicts, verdict{
			Theorem: o.Theorem, Model: o.Model, Setting: o.Setting, Variant: variant,
			Status: o.Status, Queries: o.Queries, Proof: o.Proof,
		})
	}
}

// workers is the number of goroutines an eval call over n units keeps busy.
func (s *schedule) workers(n int) int {
	if s.r.Parallelism > 1 && n > 1 {
		return min(s.r.Parallelism, n)
	}
	return 1
}

// table renders one section, timed as an eval.tables span.
func (s *schedule) table(render func() string) {
	var text string
	s.tr.span("eval.tables", "", 1, func() { text = render() })
	s.out.WriteString(text)
	s.out.WriteByte('\n')
}

func (s *schedule) run() {
	r, c := s.r, s.c
	r.Search, r.SearchName = s.tr.hook(nil, "")
	// The restricted environments are built lazily by the first eval call;
	// the traced run builds them up front so they get their own span.
	if s.tr != nil {
		s.tr.span("eval.restrict_env", "", 1, func() { r.RestrictEnv(c.Theorems[0]) })
	}
	test := r.TestSet()
	fmt.Fprintf(&s.out, "corpus: %d theorems, %d in hint set, %d evaluated\n\n",
		len(c.Theorems), len(c.Theorems)-len(test), len(test))

	sweep := eval.NewSweep()
	var jobs []eval.GridJob
	for _, prof := range model.Paper() {
		for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			jobs = append(jobs, eval.GridJob{Profile: prof, Setting: setting, Theorems: test})
		}
	}
	var grid [][]eval.Outcome
	s.tr.span("eval.grid", "", s.workers(len(eval.Units(jobs))), func() { grid = r.RunGrid(jobs) })
	for i, outs := range grid {
		sweep.Add(jobs[i].Profile.Name, jobs[i].Setting.String(), outs)
		s.record("std", outs...)
	}

	s.table(sweep.Figure1a)
	s.table(sweep.Figure1b)
	s.table(func() string { return sweep.Table1("GPT-4o") })
	s.table(sweep.Table2)
	s.table(func() string { return sweep.Figure2(c, 3) })
	s.probe(sweep)
	s.wholeProof(sweep)
	s.ablations()
}

// probe mirrors cmd/experiments' runProbe (§4.3 reduced-context probe).
func (s *schedule) probe(sweep *eval.Sweep) {
	var b strings.Builder
	b.WriteString("§4.3 probe: failed short theorems, full vs reduced context (GPT-4o, hints)\n\n")
	outs := sweep.ByModel["GPT-4o"]["hint"]
	tried, recovered := 0, 0
	for _, o := range outs {
		if o.Status == core.Proved || o.HumanTokens >= 16 {
			continue
		}
		th, ok := s.c.TheoremNamed(o.Theorem)
		if !ok {
			continue
		}
		tried++
		var red eval.Outcome
		s.tr.span("eval.probe", "GPT-4o/hint/reduced/"+th.Name, 1, func() {
			red = s.r.RunReduced(model.GPT4o, prompt.Hint, th)
		})
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
	s.out.WriteString(b.String())
	s.out.WriteByte('\n')
}

// wholeProof mirrors cmd/experiments' runWholeProof.
func (s *schedule) wholeProof(sweep *eval.Sweep) {
	var b strings.Builder
	b.WriteString("§4.3 whole-proof generation vs best-first (GPT-4o, hints)\n\n")
	ths := s.r.TestSet()
	proved := 0
	for _, th := range ths {
		var out eval.Outcome
		s.tr.span("eval.wholeproof", "GPT-4o/hint/whole:8/"+th.Name, 1, func() {
			out = s.r.RunWholeProof(model.GPT4o, prompt.Hint, th, 8)
		})
		s.record("whole:8", out)
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
	s.out.WriteString(b.String())
	s.out.WriteByte('\n')
}

// ablations mirrors cmd/experiments' runAblations: width, query-limit and
// algorithm sweeps on Runner copies.
func (s *schedule) ablations() {
	var b strings.Builder
	b.WriteString("Ablations (GPT-4o, hints)\n\n")
	ths := s.r.TestSet()

	run := func(width, fuel int, name string, search func(core.Config) core.Result) (float64, float64) {
		rr := *s.r
		rr.Width = width
		rr.QueryLimit = fuel
		rr.Search, rr.SearchName = s.tr.hook(search, name)
		variant := fmt.Sprintf("ablate:w%d/f%d/%s", width, fuel, name)
		var outs []eval.Outcome
		s.tr.span("eval.ablation", variant, s.workers(len(ths)), func() {
			outs = rr.RunSweep(model.GPT4o, prompt.Hint, ths)
		})
		s.record(variant, outs...)
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
	s.out.WriteString(b.String())
	s.out.WriteByte('\n')
}
