package sweep

import (
	"reflect"
	"testing"
	"time"

	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/remote"
)

func newRunner(t testing.TB) *eval.Runner {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := eval.NewRunner(c, 2025)
	r.Parallelism = 8
	return r
}

func testJobs(r *eval.Runner, nTheorems int) []eval.GridJob {
	ths := r.TestSet()
	if len(ths) > nTheorems {
		ths = ths[:nTheorems]
	}
	return []eval.GridJob{
		{Profile: model.GPT4oMini, Setting: prompt.Vanilla, Theorems: ths},
		{Profile: model.GPT4oMini, Setting: prompt.Hint, Theorems: ths},
	}
}

func fastPolicy() remote.Policy {
	pol := remote.DefaultPolicy()
	pol.BaseDelay = time.Millisecond
	pol.MaxDelay = 5 * time.Millisecond
	pol.RequestTimeout = 150 * time.Millisecond
	return pol
}

func renderTables(jobs []eval.GridJob, outs [][]eval.Outcome) string {
	sw := eval.NewSweep()
	for i, job := range jobs {
		sw.Add(job.Profile.Name, job.Setting.String(), outs[i])
	}
	return sw.Figure1a() + sw.Table2()
}

// TestDistributedGridEquivalence: a grid sharded over a healthy 4-worker
// fleet merges to the same [][]Outcome — and byte-equal rendered tables —
// as the single-process scheduler, with the wire demonstrably exercised on
// every worker.
func TestDistributedGridEquivalence(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 16)
	want := base.RunGrid(jobs)
	golden := renderTables(jobs, want)

	r := newRunner(t)
	fleet, err := SpawnFleet(r.Corpus.Env, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	workers := fleet.Workers(WorkerOptions{Policy: fastPolicy(), Slots: 2})
	defer CloseWorkers(workers) //nolint:errcheck

	co := New(r, workers)
	got := co.RunGrid(jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed grid outcomes differ from in-process\nstats: %s", co.Stats.Snapshot())
	}
	if table := renderTables(jobs, got); table != golden {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", table, golden)
	}
	units := len(eval.Units(jobs))
	if n := co.Stats.Executions.Load(); n < int64(units) {
		t.Fatalf("executed %d units, grid has %d", n, units)
	}
	for _, w := range workers {
		be := w.Backend.(*remote.Backend)
		if be.Stats.WireChecks.Load() == 0 {
			t.Fatalf("worker %d: wire never exercised: %s", w.ID, be.Stats.Snapshot())
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("worker %d: %d semantic mismatches", w.ID, n)
		}
	}
}

// TestDistributedSweepChaos is the headline property of the PR: a fault
// plan kills one worker mid-sweep (its process torn down with no drain)
// and stalls others, and the merged tables are still byte-identical to the
// single-process run, with the health scorer quarantining the killed
// worker. Plan seed 1 is pinned so worker 3 is killed on its very first
// unit — early enough that its slots keep pulling work against the dead
// server and the quarantine transition is actually exercised, not skipped.
func TestDistributedSweepChaos(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 16)
	want := base.RunGrid(jobs)
	golden := renderTables(jobs, want)

	r := newRunner(t)
	plan, err := faultpoint.ParsePlan(1, "worker-kill=0.15,worker-stall=0.1,drop-conn=0.02")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := SpawnFleet(r.Corpus.Env, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	workers := fleet.Workers(WorkerOptions{
		Policy:   fastPolicy(),
		Plan:     plan,
		Slots:    2,
		StallFor: 50 * time.Millisecond,
	})
	defer CloseWorkers(workers) //nolint:errcheck

	co := New(r, workers)
	co.Plan = plan
	co.StragglerAfter = 40 * time.Millisecond
	co.StallFor = 80 * time.Millisecond
	got := co.RunGrid(jobs)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos grid outcomes differ from in-process\nstats: %s", co.Stats.Snapshot())
	}
	if table := renderTables(jobs, got); table != golden {
		t.Fatalf("chaos tables differ:\n%s\nvs\n%s", table, golden)
	}

	// Non-vacuity: the chaos the plan promises must actually have happened.
	if plan.Hits(faultpoint.WorkerKill) < 1 {
		t.Fatalf("no worker was killed — chaos equivalence was vacuous (plan hits: %d)", plan.TotalHits())
	}
	if plan.TotalHits() < 2 {
		t.Fatalf("almost no faults fired (total %d)", plan.TotalHits())
	}
	killed := 0
	for _, w := range workers {
		if !w.Killed() {
			continue
		}
		killed++
		if !w.scorer().Quarantined() {
			t.Errorf("worker %d was killed but never quarantined (score %.3f, units %d)",
				w.ID, w.scorer().Score(), w.Units())
		}
	}
	if killed == 0 {
		t.Fatal("kill fired but no worker is marked killed")
	}
	if co.Stats.Kills.Load() != int64(killed) {
		t.Fatalf("kill accounting: stats=%d marked=%d", co.Stats.Kills.Load(), killed)
	}
}

// TestStrandedFallback: when every worker is dead from the start (fleet
// torn down before the sweep), the coordinator finishes the whole grid
// inline and the tables still match.
func TestStrandedFallback(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 6)
	want := base.RunGrid(jobs)

	r := newRunner(t)
	fleet, err := SpawnFleet(r.Corpus.Env, 2)
	if err != nil {
		t.Fatal(err)
	}
	workers := fleet.Workers(WorkerOptions{Policy: fastPolicy(), Slots: 1})
	defer CloseWorkers(workers) //nolint:errcheck
	fleet.Kill(0)
	fleet.Kill(1)
	for _, w := range workers {
		// Hair-trigger quarantine so both workers bench themselves after
		// one unit against their dead servers.
		w.Scorer = &Scorer{QuarantineBelow: 0.95}
	}

	co := New(r, workers)
	co.StragglerAfter = 40 * time.Millisecond
	got := co.RunGrid(jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stranded sweep outcomes differ from in-process\nstats: %s", co.Stats.Snapshot())
	}
	if co.Stats.Quarantines.Load() != 2 {
		t.Fatalf("expected both workers quarantined: %s", co.Stats.Snapshot())
	}
	if co.Stats.Fallback.Load() == 0 {
		t.Fatalf("coordinator never fell back inline: %s", co.Stats.Snapshot())
	}
	if co.WorkerReport() == "" {
		t.Fatal("empty worker report")
	}
}

// TestEmptyFleetDelegates: no workers means the coordinator is just the
// runner's own scheduler.
func TestEmptyFleetDelegates(t *testing.T) {
	r := newRunner(t)
	jobs := testJobs(r, 4)
	want := newRunner(t).RunGrid(jobs)
	got := New(r, nil).RunGrid(jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("empty-fleet coordinator diverged from Runner.RunGrid")
	}
}
