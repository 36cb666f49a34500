package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func runTyped(t *testing.T, a *Analyzer, m *Module) []Finding {
	t.Helper()
	return RunTyped([]*Analyzer{a}, m)
}

// wantFindingsAnyOrder asserts the findings match the substrings as a
// multiset; typed analyzers visit several construct classes per function,
// so per-class order is an implementation detail.
func wantFindingsAnyOrder(t *testing.T, got []Finding, wantSubstrings ...string) {
	t.Helper()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(wantSubstrings), got)
	}
	used := make([]bool, len(got))
	for _, want := range wantSubstrings {
		found := false
		for i, f := range got {
			if !used[i] && strings.Contains(f.String(), want) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding matches %q in:\n%v", want, got)
		}
	}
}

// --- hotpathalloc -----------------------------------------------------------

const hotAllocSrc = `package h

import "fmt"

//hot:root
func Hot(xs []int) string {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	f := func() int { return len(out) }
	_ = f
	m := map[string]int{}
	_ = m
	s := fmt.Sprintf("%d", len(out))
	s += "!"
	return s
}
`

func TestHotPathAllocFires(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": hotAllocSrc})
	got := runTyped(t, analyzerHotPathAlloc, m)
	wantFindingsAnyOrder(t, got,
		"unsized append to out",
		"closure captures",
		"map literal",
		"fmt.Sprintf allocates",
		"string concatenation",
	)
	for _, f := range got {
		if !strings.Contains(f.Message, "hot path (Hot):") {
			t.Errorf("finding lacks function label: %q", f.Message)
		}
		if f.Family != "typed" {
			t.Errorf("finding family = %q, want typed", f.Family)
		}
	}
}

func TestHotPathAllocColdFunctionClean(t *testing.T) {
	// Identical constructs with no //hot:root anywhere: nothing is hot.
	src := strings.Replace(hotAllocSrc, "//hot:root\n", "", 1)
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": src})
	wantFindingsAnyOrder(t, runTyped(t, analyzerHotPathAlloc, m))
}

func TestHotPathAllocInterfaceBoxing(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": `package h

func sink(v any) {}

//hot:root
func Hot(x int) {
	sink(x)
	sink(3)
	sink(nil)
}
`})
	// Only the non-constant value boxes; constants are folded at the call
	// site and nil carries no value.
	wantFindingsAnyOrder(t, runTyped(t, analyzerHotPathAlloc, m), "interface boxing: int value passed as")
}

// TestHotPathAllocScratchMethodExempt: the scratch arena's own methods are
// the recycling mechanism — their freelist-miss allocations must not be
// findings, while the same constructs in any other hot function still fire.
func TestHotPathAllocScratchMethodExempt(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": `package h

type Scratch struct{ bufs [][]int }

func (sc *Scratch) Buf(n int) []int {
	if len(sc.bufs) > 0 {
		b := sc.bufs[len(sc.bufs)-1]
		sc.bufs = sc.bufs[:len(sc.bufs)-1]
		return b[:n]
	}
	m := map[string]int{}
	_ = m
	return make([]int, n)
}

//hot:root
func Hot(sc *Scratch) []int {
	m := map[string]int{}
	_ = m
	return sc.Buf(4)
}
`})
	// Hot's own map literal fires; the identical literal inside the Scratch
	// method does not.
	wantFindingsAnyOrder(t, runTyped(t, analyzerHotPathAlloc, m), "map literal")
}

// TestHotPathAllocTableFastPathExempt: string concatenation behind a
// package-level table-lookup return is the cold slow path of the
// precomputed-name idiom; the same concat without a table still fires.
func TestHotPathAllocTableFastPathExempt(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": `package h

import "strconv"

var tab = [4]string{"v0", "v1", "v2", "v3"}

func vName(i int) string {
	if i < len(tab) {
		return tab[i]
	}
	return "v" + strconv.Itoa(i)
}

func raw(i int) string {
	return "v" + strconv.Itoa(i)
}

//hot:root
func Hot(i int) string {
	return vName(i) + raw(i)
}
`})
	got := runTyped(t, analyzerHotPathAlloc, m)
	var labels []string
	for _, f := range got {
		if strings.Contains(f.Message, "string concatenation") {
			labels = append(labels, f.Message)
		}
	}
	for _, msg := range labels {
		if strings.Contains(msg, "(vName)") {
			t.Errorf("table-fast-path concat flagged: %q", msg)
		}
	}
	wantRaw, wantHot := false, false
	for _, msg := range labels {
		wantRaw = wantRaw || strings.Contains(msg, "(raw)")
		wantHot = wantHot || strings.Contains(msg, "(Hot)")
	}
	if !wantRaw || !wantHot {
		t.Errorf("tableless concats must still fire (raw=%v, Hot=%v):\n%v", wantRaw, wantHot, got)
	}
}

// TestTypedSuppression is the regression test for the hoisted suppression
// pass: a //lint:ignore directive parsed by the shared AST loader must
// silence typed-family findings too.
func TestTypedSuppression(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "h/h.go": `package h

import "fmt"

//hot:root
func Hot(n int) string {
	//lint:ignore hotpathalloc error rendering is off the steady-state path
	return fmt.Sprintf("%d", n)
}
`})
	wantFindingsAnyOrder(t, runTyped(t, analyzerHotPathAlloc, m))
}

// --- kernelmutate -----------------------------------------------------------

func TestKernelMutateFires(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
		"internal/kernel/kernel.go": `package kernel

type Term struct {
	Var  string
	Args []*Term
}
`,
		"internal/kernel/intern.go": `package kernel

// Construction site: writes here are the sanctioned ones.
func Mk(v string) *Term {
	t := &Term{}
	t.Var = v
	return t
}
`,
		"internal/kernel/other.go": `package kernel

func Poke(t *Term) { t.Var = "x" }
`,
		"internal/tactic/t.go": `package tactic

import "example.com/fix/internal/kernel"

func Evil(t *kernel.Term) { t.Var = "y" }

func Smash(p *kernel.Term) { *p = kernel.Term{} }
`,
	})
	got := runTyped(t, analyzerKernelMutate, m)
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3 (Poke, Evil, Smash; intern.go exempt):\n%v", len(got), got)
	}
	files := map[string]int{}
	for _, f := range got {
		files[f.File]++
		if strings.Contains(f.File, "intern.go") {
			t.Errorf("intern.go flagged: %v", f)
		}
	}
	if files["internal/kernel/other.go"] != 1 || files["internal/tactic/t.go"] != 2 {
		t.Errorf("finding distribution %v, want other.go:1 t.go:2", files)
	}
}

// --- atomicmix --------------------------------------------------------------

func TestAtomicMixFires(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "s/s.go": `package s

import "sync/atomic"

type C struct{ n uint64 }

func (c *C) Inc() { atomic.AddUint64(&c.n, 1) }

func (c *C) Peek() uint64 { return c.n }
`})
	wantFindingsAnyOrder(t, runTyped(t, analyzerAtomicMix, m),
		"variable n is updated with sync/atomic elsewhere but accessed plainly")
}

// TestAtomicMixPointerMemoClean pins the fix for the atomic.Pointer memo
// idiom: Store(&local) publishes an immutable pointee — the local is not an
// atomically-accessed variable, and its plain uses are fine.
func TestAtomicMixPointerMemoClean(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "s/s.go": `package s

import "sync/atomic"

type G struct{ memo atomic.Pointer[string] }

func (g *G) S() string {
	if p := g.memo.Load(); p != nil {
		return *p
	}
	s := "computed"
	g.memo.Store(&s)
	return s
}
`})
	wantFindingsAnyOrder(t, runTyped(t, analyzerAtomicMix, m))
}

func TestAtomicMixLockCopies(t *testing.T) {
	m := loadFixture(t, map[string]string{"go.mod": fixGomod, "s/s.go": `package s

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func byValue(g guarded) int { return g.n }

func byPointer(g *guarded) int { return g.n }

func copies(g *guarded) guarded {
	snapshot := *g
	_ = snapshot
	cp := snapshot
	return cp
}
`})
	got := runTyped(t, analyzerAtomicMix, m)
	// byValue's parameter, plus the two identifier copies in copies (the
	// *g dereference is not an Ident/Selector and stays unflagged —
	// pointer loads are how callers are expected to share the value).
	wantFindingsAnyOrder(t, got,
		"value parameter of type s.guarded copies a sync lock",
		"assignment copies a s.guarded containing a sync lock",
		"assignment copies a s.guarded containing a sync lock",
	)
}

// --- errdrop ----------------------------------------------------------------

func TestErrDropFires(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
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
	got := runTyped(t, analyzerErrDrop, m)
	wantFindingsAnyOrder(t, got,
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
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
		"internal/store/s.go": `package store

import "os"

func persist(f *os.File) {
	f.Sync()
	_ = f.Close()
}
`,
	})
	got := runTyped(t, analyzerErrDrop, m)
	wantFindingsAnyOrder(t, got,
		"error result of f.Sync dropped",
		"error result of f.Close assigned to _",
	)
}

func TestErrDropCleanInStore(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
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
	if got := runTyped(t, analyzerErrDrop, m); len(got) != 0 {
		t.Fatalf("clean store fixture produced findings: %v", got)
	}
}

// --- baseline ---------------------------------------------------------------

func TestBaselineRoundTrip(t *testing.T) {
	fs := []Finding{
		{Analyzer: "hotpathalloc", File: "a/a.go", Line: 10, Message: "m1"},
		{Analyzer: "hotpathalloc", File: "a/a.go", Line: 20, Message: "m2"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := NewBaseline(fs).Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("round-tripped baseline has %d entries, want 2", b.Len())
	}
	if got := b.New(fs); len(got) != 0 {
		t.Fatalf("identical findings reported as new: %v", got)
	}

	// Line numbers are documentation, not identity: the same finding on a
	// shifted line still matches its baseline entry.
	moved := []Finding{
		{Analyzer: "hotpathalloc", File: "a/a.go", Line: 17, Message: "m1"},
		{Analyzer: "hotpathalloc", File: "a/a.go", Line: 93, Message: "m2"},
	}
	if got := b.New(moved); len(got) != 0 {
		t.Fatalf("line-shifted findings reported as new: %v", got)
	}

	// A genuinely new finding is reported...
	extra := append(moved, Finding{Analyzer: "hotpathalloc", File: "b/b.go", Line: 1, Message: "m3"})
	if got := b.New(extra); len(got) != 1 || got[0].Message != "m3" {
		t.Fatalf("New = %v, want just m3", got)
	}
	// ...and baseline entries are a budget, not a license: a second
	// instance of an already-baselined finding is new.
	dup := append(moved, Finding{Analyzer: "hotpathalloc", File: "a/a.go", Line: 99, Message: "m1"})
	if got := b.New(dup); len(got) != 1 {
		t.Fatalf("duplicate beyond budget not reported: %v", got)
	}

	// Stale detection: fixing a finding leaves its entry reclaimable.
	if got := b.Stale(moved[:1]); len(got) != 1 || got[0].Message != "m2" {
		t.Fatalf("Stale = %v, want the m2 entry", got)
	}
}

func TestLoadBaselineMissingFile(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing baseline should load empty, got error %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("missing baseline has %d entries", b.Len())
	}
}

// --- whole-repo acceptance --------------------------------------------------

// repoRoot locates the enclosing module (tests run in internal/analysis).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s: %v", root, err)
	}
	return root
}

func typedAnalyzers() []*Analyzer {
	var out []*Analyzer
	for _, a := range All() {
		if a.Family() == "typed" {
			out = append(out, a)
		}
	}
	return out
}

// TestRepoTypedLintClean is the shipped-baseline gate in library form: the
// typed analyzers over this repository at HEAD must produce no findings
// beyond lint_baseline.json, and the baseline itself must only carry
// hotpathalloc debt.
func TestRepoTypedLintClean(t *testing.T) {
	root := repoRoot(t)
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	fs := RunTyped(typedAnalyzers(), m)
	b, err := LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range b.AnalyzersIn() {
		if a != "hotpathalloc" {
			t.Errorf("baseline carries %s debt; only hotpathalloc may be baselined", a)
		}
	}
	if got := b.New(fs); len(got) != 0 {
		sort.Slice(got, func(i, j int) bool { return got[i].File < got[j].File })
		for _, f := range got {
			t.Errorf("new finding at HEAD: %v", f)
		}
	}
}

// copyRepo clones the module's go files into a temp dir for mutation tests.
func copyRepo(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		base := filepath.Base(p)
		if info.IsDir() {
			if base == ".git" || strings.HasPrefix(base, ".") && rel != "." || base == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && base != "go.mod" && base != "lint_baseline.json" {
			return nil
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// mutateFile rewrites one file in the copied repo via a required
// string replacement — failing loudly if the anchor text has drifted.
func mutateFile(t *testing.T, root, rel, old, new string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("anchor %q not found in %s; update the mutation test", old, rel)
	}
	if err := os.WriteFile(p, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mutatedRepoNew runs the typed analyzers over a mutated copy and returns
// the findings the shipped baseline does not absorb — the set cmd/lint
// would exit non-zero on.
func mutatedRepoNew(t *testing.T, root string) []Finding {
	t.Helper()
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	fs := RunTyped(typedAnalyzers(), m)
	b, err := LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b.New(fs)
}

// TestRepoCatchesHotPathSprintf is the ISSUE acceptance demo: introducing a
// fmt.Sprintf inside expander.expand must produce a finding the baseline
// does not absorb (cmd/lint exits non-zero on any New finding).
func TestRepoCatchesHotPathSprintf(t *testing.T) {
	dst := copyRepo(t, repoRoot(t))
	mutateFile(t, dst, "internal/core/expand.go",
		"import (\n\t\"llmfscq/internal/checker\"",
		"import (\n\t\"fmt\"\n\n\t\"llmfscq/internal/checker\"")
	mutateFile(t, dst, "internal/core/expand.go",
		"func (x *expander) expand(parent *tactic.State, path []string, cands []model.Candidate) *expansion {",
		"func (x *expander) expand(parent *tactic.State, path []string, cands []model.Candidate) *expansion {\n\t_ = fmt.Sprintf(\"expanding %d candidates\", len(cands))")
	got := mutatedRepoNew(t, dst)
	if len(got) == 0 {
		t.Fatal("hot-path fmt.Sprintf in expander.expand produced no new finding")
	}
	for _, f := range got {
		if f.Analyzer != "hotpathalloc" || !strings.Contains(f.Message, "fmt.Sprintf") {
			t.Errorf("unexpected extra finding: %v", f)
		}
	}
}

// TestRepoCatchesKernelFieldWrite: a kernel.Term field write outside
// intern.go must fail the gate.
func TestRepoCatchesKernelFieldWrite(t *testing.T) {
	dst := copyRepo(t, repoRoot(t))
	p := filepath.Join(dst, "internal", "kernel", "term.go")
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\nfunc lintPoke(t *Term) { t.Var = \"poked\" }\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := mutatedRepoNew(t, dst)
	if len(got) == 0 {
		t.Fatal("kernel.Term field write outside intern.go produced no new finding")
	}
	for _, f := range got {
		if f.Analyzer != "kernelmutate" {
			t.Errorf("unexpected extra finding: %v", f)
		}
	}
}
