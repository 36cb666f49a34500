//go:build !race

package eval

import (
	"runtime"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// The allocation bounds of TestAllocBoundHintedGrid. Each is a measurement
// at the commit that set it plus a margin of under 0.2% on mallocs and 1% on
// bytes (here 10 runs read 187,208–187,220 mallocs and 15.38 MB).
// That is tight enough to fail a Goal.usedNames map not handed back to its
// pool, a model rebuilt per search or a fmt.Sprintf in core's search.query.
//
// Any change that allocates less lowers both bounds to its own measurement
// plus the margin. Only a change whose CHANGES.md entry names the new
// allocation, and why, may raise them.
const (
	allocBoundMallocs = 187_500
	allocBoundBytes   = 15_530_000
)

// TestAllocBoundHintedGrid measures the mallocs and bytes of one hinted
// GPT-4o sweep over the test set and fails above the committed bounds. It
// runs at GOMAXPROCS 1: with more Ps, sync.Pool's per-P private slots make
// the grid worker's model reuse depend on scheduling, and at two Ps runs
// spread by 0.09% in mallocs and 1.8% in bytes, wider than the bytes
// margin; at one P they spread by under 0.01% and 0.05%. Excluded under
// -race, whose instrumentation allocates.
func TestAllocBoundHintedGrid(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep := func() {
		r := NewRunner(c, 2025)
		r.Parallelism = 1
		r.RunSweep(model.GPT4o, prompt.Hint, r.TestSet())
	}
	// The warm-up fills the process-global intern arena and the corpus's
	// per-theorem environments (corpus.EnvBefore), so the measured sweep on
	// a fresh Runner pays for its own caches and searches only.
	sweep()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("hinted GPT-4o grid: %d mallocs (bound %d), %d bytes (bound %d)",
		mallocs, allocBoundMallocs, bytes, allocBoundBytes)
	if mallocs > allocBoundMallocs {
		t.Errorf("hinted GPT-4o grid made %d mallocs, above the bound of %d", mallocs, allocBoundMallocs)
	}
	if bytes > allocBoundBytes {
		t.Errorf("hinted GPT-4o grid allocated %d bytes, above the bound of %d", bytes, allocBoundBytes)
	}
}
