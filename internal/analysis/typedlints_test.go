package analysis

import (
	"os"
	"path/filepath"
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

// TestTypedSuppression is the regression test for the hoisted suppression
// pass: a //lint:ignore directive parsed by the shared AST loader must
// silence typed-family findings too, and only where it stands.
func TestTypedSuppression(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
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
	got := runTyped(t, analyzerErrDrop, m)
	wantFindingsAnyOrder(t, got, "error result of fail dropped")
	if got[0].Line != 12 || got[0].Family != "typed" {
		t.Errorf("surviving finding %+v, want line 12 (Unsuppressed) in family typed", got[0])
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

// TestRepoTypedLintClean is cmd/lint's typed gate in library form: the
// typed analyzers over this repository at HEAD produce no findings.
func TestRepoTypedLintClean(t *testing.T) {
	m, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunTyped(typedAnalyzers(), m) {
		t.Errorf("finding at HEAD: %v", f)
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
		if !strings.HasSuffix(p, ".go") && base != "go.mod" {
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

// mutatedRepoNew runs the typed analyzers over a mutated copy. The
// repository itself has no typed findings (TestRepoTypedLintClean), so
// every finding returned is new: the set cmd/lint would exit non-zero on.
func mutatedRepoNew(t *testing.T, root string) []Finding {
	t.Helper()
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return RunTyped(typedAnalyzers(), m)
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
