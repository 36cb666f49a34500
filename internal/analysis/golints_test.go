package analysis

import (
	"go/token"
	"strings"
	"testing"
)

// mustPkg builds a one-file package in the given module-relative dir.
func mustPkg(t *testing.T, dir, name, src string) *GoPackage {
	t.Helper()
	pkg := &GoPackage{Fset: token.NewFileSet(), Dir: dir}
	if err := pkg.AddFile(path(dir, name), src); err != nil {
		t.Fatalf("parse fixture %s: %v", name, err)
	}
	return pkg
}

func runOne(t *testing.T, a *Analyzer, pkg *GoPackage) []Finding {
	t.Helper()
	return RunGo([]*Analyzer{a}, pkg)
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
	src := `package eval

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
`
	got := runOne(t, analyzerDeterminism, mustPkg(t, "internal/eval", "bad.go", src))
	wantFindings(t, got,
		"determinism: time.Now breaks reproducibility",
		"determinism: package-level math/rand.Intn",
		"determinism: rand.New without an inline rand.NewSource",
	)
}

func TestDeterminismClean(t *testing.T) {
	src := `package eval

import "math/rand"

func good(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`
	got := runOne(t, analyzerDeterminism, mustPkg(t, "internal/eval", "good.go", src))
	wantFindings(t, got)
}

func TestDeterminismOutOfScope(t *testing.T) {
	// Same offending code outside the experiment path is not flagged.
	src := `package tools

import "time"

func ok() { _ = time.Now() }
`
	got := runOne(t, analyzerDeterminism, mustPkg(t, "internal/tools", "clock.go", src))
	wantFindings(t, got)
}

func TestDeterminismTestFilesExempt(t *testing.T) {
	src := `package eval

import "time"

func bench() { _ = time.Now() }
`
	got := runOne(t, analyzerDeterminism, mustPkg(t, "internal/eval", "bench_test.go", src))
	wantFindings(t, got)
}

// --- maporder --------------------------------------------------------------

func TestMapOrderAppendFires(t *testing.T) {
	src := `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got, "maporder: appending to out inside range over a map")
}

func TestMapOrderPrintFires(t *testing.T) {
	src := `package p

import "fmt"

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got, "maporder: fmt.Printf inside range over a map")
}

func TestMapOrderNamedTypeAndFieldFires(t *testing.T) {
	// The map is reached through a named type and a struct field.
	src := `package p

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
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got, "maporder: appending to out inside range over a map")
}

func TestMapOrderSortedClean(t *testing.T) {
	src := `package p

import "sort"

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got)
}

func TestMapOrderLoopLocalSliceClean(t *testing.T) {
	// A slice declared inside the range body is fresh per iteration.
	src := `package p

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
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got)
}

func TestMapOrderSliceRangeClean(t *testing.T) {
	src := `package p

func collect(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got)
}

// --- goroutine -------------------------------------------------------------

func TestGoroutineWgAddInsideFires(t *testing.T) {
	src := `package p

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
`
	got := runOne(t, analyzerGoroutine, mustPkg(t, "internal/p", "g.go", src))
	wantFindings(t, got, "goroutine: wg.Add inside the spawned goroutine races with Wait")
}

func TestGoroutineArgPassClean(t *testing.T) {
	src := `package p

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
`
	got := runOne(t, analyzerGoroutine, mustPkg(t, "internal/p", "g.go", src))
	wantFindings(t, got)
}

// --- suppression -----------------------------------------------------------

func TestSuppressionSameLine(t *testing.T) {
	src := `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //lint:ignore maporder order normalized by caller
	}
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got)
}

func TestSuppressionLineAbove(t *testing.T) {
	src := `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore maporder order normalized by caller
		out = append(out, k)
	}
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got)
}

func TestSuppressionWrongAnalyzerKeepsFinding(t *testing.T) {
	src := `package p

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //lint:ignore determinism wrong analyzer name
	}
	return out
}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got, "maporder: appending to out")
}

func TestSuppressionMissingReasonReported(t *testing.T) {
	src := `package p

//lint:ignore maporder
func f() {}
`
	got := runOne(t, analyzerMapOrder, mustPkg(t, "internal/p", "m.go", src))
	wantFindings(t, got, "lint: malformed lint:ignore directive")
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
		set := 0
		if a.Go != nil {
			set++
		}
		if a.Typed != nil {
			set++
		}
		if a.Corpus != nil {
			set++
		}
		if set != 1 {
			t.Errorf("analyzer %s must set exactly one of Go/Typed/Corpus", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

func TestFindingsSorted(t *testing.T) {
	src := `package eval

import "time"

func b() { _ = time.Now() }

func a() { _ = time.Now() }
`
	got := runOne(t, analyzerDeterminism, mustPkg(t, "internal/eval", "f.go", src))
	if len(got) != 2 || got[0].Line >= got[1].Line {
		t.Fatalf("findings not position-sorted: %v", got)
	}
}
