package eval

import (
	"reflect"
	"testing"

	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// TestGoldenDeterminism is the load-bearing regression for the performance
// layer: the same grid evaluated serially (Parallelism=1), with a wide
// worker pool (Parallelism=8), and through the grid scheduler must produce
// identical []Outcome — and byte-equal rendered tables — for two models in
// both settings. Every cache and the scheduler sit on this path, so any
// schedule- or sharing-dependence shows up here (and under -race via
// scripts/check.sh).
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

// The prefix-environment index must agree with the kernel's restriction
// rule (the one the checkerd server uses) for every theorem in the corpus.
func TestPrefixEnvsMatchDirectRestriction(t *testing.T) {
	r, c := runner(t)
	for _, th := range c.Theorems {
		fast := r.RestrictEnv(th)
		slow := c.Env.Before(th.Name)
		if len(fast.Lemmas) != len(slow.Lemmas) {
			t.Fatalf("%s: lemma count %d vs %d", th.Name, len(fast.Lemmas), len(slow.Lemmas))
		}
		for name := range slow.Lemmas {
			if fast.Lemmas[name] != slow.Lemmas[name] {
				t.Fatalf("%s: lemma %s differs", th.Name, name)
			}
		}
		if !reflect.DeepEqual(fast.LemmaOrder, slow.LemmaOrder) && len(slow.LemmaOrder) > 0 {
			t.Fatalf("%s: LemmaOrder differs", th.Name)
		}
		if !reflect.DeepEqual(fast.HintOrder, slow.HintOrder) {
			t.Fatalf("%s: HintOrder differs: %v vs %v", th.Name, fast.HintOrder, slow.HintOrder)
		}
		for name := range slow.Hints {
			if !fast.Hints[name] {
				t.Fatalf("%s: hint %s missing", th.Name, name)
			}
		}
		if len(fast.Hints) != len(slow.Hints) {
			t.Fatalf("%s: hint count %d vs %d", th.Name, len(fast.Hints), len(slow.Hints))
		}
		// The immutable families stay complete (they are shared with the
		// full environment, never filtered).
		if len(fast.Funs) != len(c.Env.Funs) || len(fast.Datatypes) != len(c.Env.Datatypes) {
			t.Fatalf("%s: shared families were filtered", th.Name)
		}
	}
}

func TestUnitsAndGridShape(t *testing.T) {
	// Unit enumeration is pure index arithmetic: the jobs need theorems
	// to count, nothing more.
	_, c := runner(t)
	jobs := []GridJob{{Theorems: c.Theorems[:3]}, {}, {Theorems: c.Theorems[:2]}}
	units := Units(jobs)
	want := []GridUnit{{0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("Units = %v, want %v", units, want)
	}
	shape := GridShape(jobs)
	if len(shape) != 3 || len(shape[0]) != 3 || len(shape[1]) != 0 || len(shape[2]) != 2 {
		t.Fatalf("GridShape rows: %d/%d/%d", len(shape[0]), len(shape[1]), len(shape[2]))
	}
	if got := Units(nil); len(got) != 0 {
		t.Fatalf("Units(nil) = %v", got)
	}
}
