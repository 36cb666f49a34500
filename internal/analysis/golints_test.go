package analysis

import (
	"strings"
	"testing"
)

// runFixture type-checks a fixture module and runs one analyzer over it
// through the runner, suppressions included.
func runFixture(t *testing.T, a *Analyzer, files map[string]string) []Finding {
	t.Helper()
	return RunGo([]*Analyzer{a}, loadFixture(t, files))
}

func wantFindings(t *testing.T, got []Finding, wantSubstrings ...string) {
	t.Helper()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(wantSubstrings), got)
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(got[i].String(), want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], want)
		}
	}
}

// --- determinism -----------------------------------------------------------

func TestDeterminismFires(t *testing.T) {
	got := runFixture(t, analyzerDeterminism, map[string]string{
		"internal/eval/bad.go": `package eval

import (
	"math/rand"
	"time"
)

func bad() {
	_ = time.Now()
	_ = rand.Intn(10)
	var src rand.Source
	_ = rand.New(src)
}
`,
		// A dot import leaves no qualifier to match; the object is the same.
		"internal/tactic/dot.go": `package tactic

import . "time"

func clock() Time { return Now() }
`,
	})
	wantFindings(t, got,
		"determinism: time.Now breaks reproducibility",
		"determinism: package-level math/rand.Intn",
		"determinism: rand.New without an inline rand.NewSource",
		"internal/tactic/dot.go:5: determinism: time.Now breaks reproducibility",
	)
}

func TestDeterminismClean(t *testing.T) {
	got := runFixture(t, analyzerDeterminism, map[string]string{
		"internal/eval/good.go": `package eval

import "math/rand"

func good(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`,
	})
	wantFindings(t, got)
}

func TestDeterminismOutOfScope(t *testing.T) {
	// Same offending code outside the experiment path is not flagged.
	got := runFixture(t, analyzerDeterminism, map[string]string{
		"internal/tools/clock.go": `package tools

import "time"

func ok() { _ = time.Now() }
`,
	})
	wantFindings(t, got)
}

func TestDeterminismTestFilesExempt(t *testing.T) {
	got := runFixture(t, analyzerDeterminism, map[string]string{
		"internal/eval/bench_test.go": `package eval

import "time"

func bench() { _ = time.Now() }
`,
	})
	wantFindings(t, got)
}

// --- maporder --------------------------------------------------------------

func TestMapOrderAppendFires(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	wantFindings(t, got, "maporder: appending to out inside range over a map")
}

func TestMapOrderPrintFires(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

import "fmt"

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
	})
	wantFindings(t, got, "maporder: fmt.Printf inside range over a map")
}

func TestMapOrderNamedTypeAndFieldFires(t *testing.T) {
	// The map is reached through a named type and a struct field, and
	// through a named map type another package declares.
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

type table map[string]int

type stats struct {
	counts table
}

func (s *stats) names() []string {
	var out []string
	for k := range s.counts {
		out = append(out, k)
	}
	return out
}
`,
		"internal/q/subst.go": `package q

type Subst map[string]int
`,
		"internal/p/cross.go": `package p

import "example.com/fix/internal/q"

func keys(s q.Subst) []string {
	var ks []string
	for k := range s {
		ks = append(ks, k)
	}
	return ks
}
`,
	})
	wantFindings(t, got,
		"internal/p/cross.go:8: maporder: appending to ks inside range over a map",
		"internal/p/m.go:12: maporder: appending to out inside range over a map",
	)
}

func TestMapOrderSortedClean(t *testing.T) {
	// Each of the four slices is sorted after the loop, by sort or by
	// slices.Sort*.
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

import (
	"slices"
	"sort"
	"strings"
)

func collect(m map[string]int) (a, b, c, d []string) {
	for k := range m {
		a = append(a, k)
		b = append(b, k)
		c = append(c, k)
		d = append(d, k)
	}
	sort.Strings(a)
	slices.Sort(b)
	slices.SortFunc(c, strings.Compare)
	slices.SortStableFunc(d, strings.Compare)
	return a, b, c, d
}
`,
	})
	wantFindings(t, got)
}

func TestMapOrderLoopLocalSliceClean(t *testing.T) {
	// A slice declared inside the range body is fresh per iteration.
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func sums(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var acc []int
		for _, v := range vs {
			acc = append(acc, v)
		}
		total += len(acc)
	}
	return total
}
`,
	})
	wantFindings(t, got)
}

func TestMapOrderSliceRangeClean(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func collect(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`,
	})
	wantFindings(t, got)
}

func TestMapOrderRandDrawFires(t *testing.T) {
	// Which block keeps its write depends on map order, not on the seed.
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/crash.go": `package p

import "math/rand"

type disk struct{ rng *rand.Rand }

func (d *disk) crash(dirty map[int]uint64, out []uint64) {
	for a, v := range dirty {
		if d.rng.Intn(2) == 1 {
			out[a] = v
		}
	}
}
`,
	})
	wantFindings(t, got, "internal/p/crash.go:9: maporder: rand.Intn draw inside range over a map")
}

func TestMapOrderRandDrawSortedKeysClean(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/crash.go": `package p

import (
	"math/rand"
	"sort"
)

func crash(rng *rand.Rand, dirty map[int]uint64, out []uint64) {
	var addrs []int
	for a := range dirty {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		if rng.Intn(2) == 1 {
			out[a] = dirty[a]
		}
	}
}
`,
	})
	wantFindings(t, got)
}

// --- goroutine -------------------------------------------------------------

func TestGoroutineWgAddInsideFires(t *testing.T) {
	got := runFixture(t, analyzerGoroutine, map[string]string{
		"internal/p/g.go": `package p

import "sync"

func pool(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func(i int) {
			wg.Add(1)
			defer wg.Done()
		}(i)
	}
	wg.Wait()
}

type cache struct{ wg sync.WaitGroup }

func (c *cache) flush() {
	go func() {
		c.wg.Add(1)
		defer c.wg.Done()
	}()
}
`,
	})
	wantFindings(t, got,
		"g.go:9: goroutine: wg.Add inside the spawned goroutine races with Wait",
		"g.go:20: goroutine: c.wg.Add inside the spawned goroutine races with Wait",
	)
}

func TestGoroutineArgPassClean(t *testing.T) {
	got := runFixture(t, analyzerGoroutine, map[string]string{
		"internal/p/g.go": `package p

import "sync"

func pool(jobs []int, run func(int)) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			run(j)
		}(j)
	}
	wg.Wait()
}
`,
	})
	wantFindings(t, got)
}

// --- errdrop ----------------------------------------------------------------

func TestErrDropFires(t *testing.T) {
	got := runFixture(t, analyzerErrDrop, map[string]string{
		"internal/protocol/p.go": `package protocol

import "errors"

func fail() error { return errors.New("x") }

func Bad() { fail() }

func Blank() { _ = fail() }

func Deferred() { defer fail() }

func Good() error { return fail() }
`,
		"pkg/other.go": `package pkg

import "errors"

func fail() error { return errors.New("x") }

func OutOfScope() { fail() }
`,
	})
	wantFindings(t, got,
		"error result of fail dropped",
		"error result of fail assigned to _",
	)
	for _, f := range got {
		if !strings.HasPrefix(f.File, "internal/protocol/") {
			t.Errorf("finding outside errdrop scope: %v", f)
		}
	}
}

// The persistence path is in errdrop scope: a dropped fsync/close/rename
// error silently voids the proof store's crash-safety guarantees.
func TestErrDropFiresInStore(t *testing.T) {
	got := runFixture(t, analyzerErrDrop, map[string]string{
		"internal/store/s.go": `package store

import "os"

func persist(f *os.File) {
	f.Sync()
	_ = f.Close()
}
`,
	})
	wantFindings(t, got,
		"error result of f.Sync dropped",
		"error result of f.Close assigned to _",
	)
}

func TestErrDropCleanInStore(t *testing.T) {
	got := runFixture(t, analyzerErrDrop, map[string]string{
		"internal/store/s.go": `package store

import "os"

func persist(f *os.File) error {
	// Handled errors and deferred teardown are the accepted idioms.
	defer f.Close()
	if err := f.Sync(); err != nil {
		return err
	}
	return nil
}
`,
	})
	wantFindings(t, got)
}

// --- suppression -----------------------------------------------------------

func TestSuppressionSameLine(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //lint:ignore maporder order normalized by caller
	}
	return out
}
`,
	})
	wantFindings(t, got)
}

func TestSuppressionLineAbove(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore maporder order normalized by caller
		out = append(out, k)
	}
	return out
}
`,
	})
	wantFindings(t, got)
}

func TestSuppressionWrongAnalyzerKeepsFinding(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //lint:ignore determinism wrong analyzer name
	}
	return out
}
`,
	})
	wantFindings(t, got, "maporder: appending to out")
}

func TestSuppressionMissingReasonReported(t *testing.T) {
	got := runFixture(t, analyzerMapOrder, map[string]string{
		"internal/p/m.go": `package p

//lint:ignore maporder
func f() {}
`,
	})
	wantFindings(t, got, "lint: malformed lint:ignore directive")
}

// A directive silences errdrop's findings like any other analyzer's, and
// only where it stands.
func TestTypedSuppression(t *testing.T) {
	got := runFixture(t, analyzerErrDrop, map[string]string{
		"internal/remote/r.go": `package remote

import "errors"

func fail() error { return errors.New("x") }

func Teardown() {
	//lint:ignore errdrop the session is being discarded either way
	fail()
}

func Unsuppressed() { fail() }
`,
	})
	wantFindings(t, got, "r.go:12: errdrop: error result of fail dropped")
}

// --- registry --------------------------------------------------------------

// Suppressions name their analyzer, so names must be unique; each analyzer
// belongs to exactly one family and says what it checks.
func TestAllAnalyzersWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name] {
			t.Errorf("analyzer name %s registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Go == nil {
			t.Errorf("analyzer %s has no Go func", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

func TestFindingsSorted(t *testing.T) {
	got := runFixture(t, analyzerDeterminism, map[string]string{
		"internal/eval/f.go": `package eval

import "time"

func b() { _ = time.Now() }

func a() { _ = time.Now() }
`,
	})
	if len(got) != 2 || got[0].Line >= got[1].Line {
		t.Fatalf("findings not position-sorted: %v", got)
	}
}
