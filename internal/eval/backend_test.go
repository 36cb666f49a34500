package eval

import (
	"reflect"
	"testing"

	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
)

// startCheckerd spins an in-process wire server over the runner's corpus.
func startCheckerd(t *testing.T, r *Runner) string {
	t.Helper()
	srv := protocol.NewServer(r.Corpus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestBackendEquivalence: a grid evaluated through the remote backend
// produces []Outcome and rendered tables identical to the in-process
// backend at the same seed, with the wire demonstrably exercised.
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
	render := func(outs [][]Outcome) string {
		sw := NewSweep()
		for i, job := range jobs {
			sw.Add(job.Profile.Name, job.Setting.String(), outs[i])
		}
		return sw.Figure1a() + sw.Table2()
	}

	r, _ := runner(t)
	r.Parallelism = 4
	be := remote.New(startCheckerd(t, r), protocol.DefaultTimeout)
	r.Backend = be
	got := r.RunGrid(jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote grid outcomes differ from in-process")
	}
	if table, golden := render(got), render(want); table != golden {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", table, golden)
	}
	if be.Stats.WireChecks.Load() == 0 {
		t.Fatalf("wire never exercised")
	}
	if m, f := be.Stats.Mismatches.Load(), be.Stats.Failures.Load(); m != 0 || f != 0 {
		t.Fatalf("%d mismatches and %d wire failures on a clean wire", m, f)
	}
}
