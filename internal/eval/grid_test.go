package eval

import (
	"reflect"
	"testing"

	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// TestGoldenDeterminism is the load-bearing regression for the performance
// layer: the same grid evaluated sweep by sweep by one worker
// (Parallelism=1) and by a wide worker pool (Parallelism=8), and as one
// grid, must produce identical []Outcome — and byte-equal rendered tables —
// for two models in both settings. Every cache and the scheduler sit on
// this path, so any schedule- or sharing-dependence shows up here (and
// under -race via scripts/check.sh).
func TestGoldenDeterminism(t *testing.T) {
	serial, _ := runner(t)
	serial.Parallelism = 1
	par, _ := runner(t)
	par.Parallelism = 8
	grid, _ := runner(t)
	grid.Parallelism = 8

	ths := serial.TestSet()
	if len(ths) > 12 {
		ths = ths[:12]
	}
	profiles := []model.Profile{model.GPT4oMini, model.GPT4o}
	settings := []prompt.Setting{prompt.Vanilla, prompt.Hint}

	var jobs []GridJob
	for _, prof := range profiles {
		for _, setting := range settings {
			jobs = append(jobs, GridJob{Profile: prof, Setting: setting, Theorems: ths})
		}
	}
	gridOuts := grid.RunGrid(jobs)

	serialSweep, parSweep, gridSweep := NewSweep(), NewSweep(), NewSweep()
	for i, job := range jobs {
		name, setting := job.Profile.Name, job.Setting.String()
		a := serial.RunSweep(job.Profile, job.Setting, ths)
		b := par.RunSweep(job.Profile, job.Setting, ths)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s/%s: Parallelism=1 vs Parallelism=8 outcomes differ", name, setting)
		}
		if !reflect.DeepEqual(a, gridOuts[i]) {
			t.Fatalf("%s/%s: sweep vs grid scheduler outcomes differ", name, setting)
		}
		serialSweep.Add(name, setting, a)
		parSweep.Add(name, setting, b)
		gridSweep.Add(name, setting, gridOuts[i])
	}

	for _, render := range []struct {
		name string
		of   func(*Sweep) string
	}{
		{"Figure1a", (*Sweep).Figure1a},
		{"Table2", (*Sweep).Table2},
	} {
		want := render.of(serialSweep)
		if got := render.of(parSweep); got != want {
			t.Errorf("%s differs between Parallelism=1 and Parallelism=8:\n%s\nvs\n%s", render.name, want, got)
		}
		if got := render.of(gridSweep); got != want {
			t.Errorf("%s differs between serial sweep and grid scheduler:\n%s\nvs\n%s", render.name, want, got)
		}
	}
}

func TestUnitsAndGridShape(t *testing.T) {
	r, c := runner(t)
	r.Parallelism = 2
	job := func(n int) GridJob {
		return GridJob{Profile: model.GPT4oMini, Setting: prompt.Vanilla, Theorems: c.Theorems[:n]}
	}
	jobs := []GridJob{job(3), job(0), job(2)}
	units := Units(jobs)
	want := []GridUnit{{0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("Units = %v, want %v", units, want)
	}
	if got := Units(nil); len(got) != 0 {
		t.Fatalf("Units(nil) = %v", got)
	}
	// RunGrid places each unit's outcome at its (job, theorem) coordinate.
	out := r.RunGrid(jobs)
	if len(out) != 3 || len(out[0]) != 3 || len(out[1]) != 0 || len(out[2]) != 2 {
		t.Fatalf("RunGrid shape: %d jobs", len(out))
	}
	for _, u := range units {
		if got, want := out[u.Job][u.Th].Theorem, jobs[u.Job].Theorems[u.Th].Name; got != want {
			t.Errorf("unit %v: outcome of %s, want %s", u, got, want)
		}
	}
}
