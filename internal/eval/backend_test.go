package eval

import (
	"reflect"
	"testing"
	"time"

	"llmfscq/internal/faultpoint"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
)

// startCheckerd spins an in-process wire server over the runner's corpus.
func startCheckerd(t *testing.T, r *Runner) string {
	t.Helper()
	srv := protocol.NewServer(r.Corpus.Env)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestBackendEquivalence: a grid evaluated through the remote backend —
// clean and under an enabled fault schedule — produces []Outcome and
// rendered tables identical to the in-process backend at the same seed,
// with the wire demonstrably exercised.
func TestBackendEquivalence(t *testing.T) {
	base, _ := runner(t)
	ths := base.TestSet()
	if len(ths) > 10 {
		ths = ths[:10]
	}
	jobs := []GridJob{
		{Profile: model.GPT4oMini, Setting: prompt.Vanilla, Theorems: ths},
		{Profile: model.GPT4oMini, Setting: prompt.Hint, Theorems: ths},
	}
	want := base.RunGrid(jobs)
	wantTable := func(outs [][]Outcome) string {
		sw := NewSweep()
		for i, job := range jobs {
			sw.Add(job.Profile.Name, job.Setting.String(), outs[i])
		}
		return sw.Figure1a() + sw.Table2()
	}
	golden := wantTable(want)

	plans := []string{"", "drop-conn=0.002,corrupt-answer=0.001"}
	for _, spec := range plans {
		r, _ := runner(t)
		r.Parallelism = 4
		plan, err := faultpoint.ParsePlan(99, spec)
		if err != nil {
			t.Fatal(err)
		}
		be := remote.New(startCheckerd(t, r), 150*time.Millisecond)
		be.Plan = plan
		r.Backend = be

		got := r.RunGrid(jobs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("faults=%q: remote grid outcomes differ from in-process", spec)
		}
		if table := wantTable(got); table != golden {
			t.Fatalf("faults=%q: rendered tables differ:\n%s\nvs\n%s", spec, table, golden)
		}
		if be.Stats.WireChecks.Load() == 0 {
			t.Fatalf("faults=%q: wire never exercised", spec)
		}
		if n := be.Stats.Mismatches.Load(); n != 0 {
			t.Fatalf("faults=%q: %d semantic mismatches", spec, n)
		}
		if spec != "" && plan.TotalHits() == 0 {
			t.Fatalf("faults=%q: no fault fired — chaos equivalence was vacuous", spec)
		}
	}
}
