package sweep

import (
	"sync/atomic"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/remote"
)

// Worker is one checkerd worker of the fleet: an execution backend plus the
// coordinator-side state that routes work to it (health score, counters,
// kill hook). Workers never own results — the mirror-first backend design
// means any worker, healthy or dead, produces the same Outcome for a unit —
// so everything here is routing and observability.
type Worker struct {
	// ID is the worker's index in the coordinator's fleet.
	ID int
	// Name labels the worker in reports (conventionally its address).
	Name string
	// Backend executes this worker's units (normally a *remote.Backend
	// dialing one checkerd).
	Backend checker.Backend
	// Scorer tracks the worker's health (nil: a default Scorer).
	Scorer *Scorer
	// Slots is the number of units the worker executes concurrently
	// (<=0: 1). The coordinator runs one goroutine per slot.
	Slots int
	// Kill abruptly terminates the worker process, when the coordinator
	// has that power (in-process fleets); nil for dialed workers. Consumed
	// by the worker-kill fault site and fired at most once.
	Kill func()

	killed       atomic.Bool
	quarCounted  atomic.Bool
	units        atomic.Int64
	steals       atomic.Int64
	redispatches atomic.Int64
}

// slots returns the worker's effective concurrency.
func (w *Worker) slots() int {
	if w.Slots <= 0 {
		return 1
	}
	return w.Slots
}

// scorer returns the worker's health scorer, creating a default one.
func (w *Worker) scorer() *Scorer {
	if w.Scorer == nil {
		w.Scorer = &Scorer{}
	}
	return w.Scorer
}

// health snapshots the backend's robustness signals; backends that do not
// report (in-process) read as permanently healthy.
func (w *Worker) health() checker.HealthSignals {
	if hr, ok := w.Backend.(checker.HealthReporter); ok {
		return hr.Health()
	}
	return checker.HealthSignals{}
}

// Killed reports whether the worker-kill fault site (or a direct Kill) has
// terminated this worker's process.
func (w *Worker) Killed() bool { return w.killed.Load() }

// Units, Steals, and Redispatches report how many units the worker
// executed, how many of those it stole from other workers' shards, and how
// many were straggler duplicates.
func (w *Worker) Units() int64        { return w.units.Load() }
func (w *Worker) Steals() int64       { return w.steals.Load() }
func (w *Worker) Redispatches() int64 { return w.redispatches.Load() }

// WorkerOptions configures DialWorkers.
type WorkerOptions struct {
	// Policy is the per-worker retry/breaker policy (zero: remote.DefaultPolicy).
	Policy remote.Policy
	// Plan enables connection-level fault injection on every worker's wire
	// (drop-conn, stall, ...); the coordinator separately consumes the
	// worker-kill/worker-stall sites of the same plan.
	Plan *faultpoint.Plan
	// Seed drives each worker backend's backoff jitter.
	Seed int64
	// StallFor is how long an injected connection stall blocks.
	StallFor time.Duration
	// Slots is the per-worker unit concurrency (<=0: 1); it also sizes the
	// backend's wire-session pool so concurrent units never fall back to
	// local-only execution just because the pool is small.
	Slots int
}

// DialWorkers builds one remote-backend worker per checkerd address. The
// workers have no Kill hook — the coordinator cannot kill processes it did
// not spawn; use Fleet for a killable in-process fleet.
func DialWorkers(addrs []string, opt WorkerOptions) []*Worker {
	workers := make([]*Worker, len(addrs))
	for i, addr := range addrs {
		be := remote.New(addr, opt.Policy)
		be.Plan = opt.Plan
		be.Seed = opt.Seed + int64(i)
		be.StallFor = opt.StallFor
		slots := opt.Slots
		if slots <= 0 {
			slots = 1
		}
		be.PoolSize = slots
		workers[i] = &Worker{
			ID:      i,
			Name:    addr,
			Backend: be,
			Slots:   slots,
		}
	}
	return workers
}

// CloseWorkers closes every worker backend, returning the first error.
// Called once the sweep is merged — the coordinator's drain step.
func CloseWorkers(workers []*Worker) error {
	var first error
	for _, w := range workers {
		if err := w.Backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
