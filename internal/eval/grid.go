package eval

import (
	"sync"
	"sync/atomic"

	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// GridJob is one (model, setting) sweep of the experiment grid.
type GridJob struct {
	Profile  model.Profile
	Setting  prompt.Setting
	Theorems []*corpus.Theorem
}

// GridUnit addresses one (job, theorem) cell of a grid: the unit of work
// RunGrid's pool hands a worker. An Outcome is a pure function of the
// runner's configuration and the unit, never of the schedule.
type GridUnit struct {
	Job, Th int
}

// Units flattens jobs into their grid units in job-major order, the order
// RunGrid's shared-counter pool consumes them.
func Units(jobs []GridJob) []GridUnit {
	var units []GridUnit
	for i := range jobs {
		for t := range jobs[i].Theorems {
			units = append(units, GridUnit{Job: i, Th: t})
		}
	}
	return units
}

// GridShape allocates the result matrix for jobs: out[i][t] receives the
// Outcome of unit {i, t}. Merging results into fixed coordinates, rather
// than appending in completion order, keeps the serial and pooled
// schedules byte-identical.
func GridShape(jobs []GridJob) [][]Outcome {
	out := make([][]Outcome, len(jobs))
	for i := range jobs {
		out[i] = make([]Outcome, len(jobs[i].Theorems))
	}
	return out
}

// RunGrid evaluates the whole (model, setting) × theorem job matrix through
// one bounded worker pool, instead of parallelizing only within a sweep and
// idling the pool between sweeps. Every unit is an independent search with
// its own jobSeed-derived RNG, so the schedule cannot influence any
// outcome: results land at fixed (job, theorem) coordinates and are
// byte-identical across Parallelism settings.
func (r *Runner) RunGrid(jobs []GridJob) [][]Outcome {
	out := GridShape(jobs)
	units := Units(jobs)
	run := func(u GridUnit) {
		j := jobs[u.Job]
		out[u.Job][u.Th] = r.RunTheorem(j.Profile, j.Setting, j.Theorems[u.Th])
	}
	par := r.Parallelism
	if par > len(units) {
		par = len(units)
	}
	if par <= 1 {
		for _, u := range units {
			run(u)
		}
		return out
	}
	// Workers pull the next unit off a shared counter; no per-unit
	// goroutine and no channel churn for ~2,500-unit grids.
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(units)) {
					return
				}
				run(units[i])
			}
		}()
	}
	wg.Wait()
	return out
}
