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
	if got[0].Line != 12 {
		t.Errorf("surviving finding %+v, want line 12 (Unsuppressed)", got[0])
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

// lintModule runs the Go and typed families over the module at root: the
// gate TestRepoLintClean holds this repository to.
func lintModule(t *testing.T, root string) []Finding {
	t.Helper()
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []Finding
	for _, tp := range m.Pkgs {
		out = append(out, RunGo(All(), tp.GoPackage)...)
	}
	return append(out, RunTyped(All(), m)...)
}

// TestRepoLintClean: the Go and typed analyzers over this repository at
// HEAD produce no findings (the corpus family's twin is
// TestEmbeddedCorpusLintClean in internal/corpus).
func TestRepoLintClean(t *testing.T) {
	for _, f := range lintModule(t, repoRoot(t)) {
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

// TestRepoCatchesPlantedViolations plants one violation at a time in a copy
// of the repository. The repository itself is clean (TestRepoLintClean), so
// every finding is the plant's, and it must come from the named analyzer
// alone. The last two legs delete one of the repository's two
// //lint:ignore directives, so they also show that each still suppresses a
// real finding.
func TestRepoCatchesPlantedViolations(t *testing.T) {
	root := repoRoot(t)
	for _, tc := range []struct {
		name, file string
		plant      func(src string) string // the file's new text, given its old ("" for a new file)
		want       string
	}{
		{"kernel field write", "internal/kernel/term.go", func(src string) string {
			return src + "\nfunc lintPoke(t *Term) { t.Var = \"poked\" }\n"
		}, "kernelmutate"},
		{"wall clock in core", "internal/core/clock.go", func(string) string {
			return "package core\n\nimport \"time\"\n\nfunc lintClock() time.Time { return time.Now() }\n"
		}, "determinism"},
		{"maporder directive removed", "internal/model/ngram.go", func(src string) string {
			return strings.Replace(src, "//lint:ignore maporder", "//", 1)
		}, "maporder"},
		{"errdrop directive removed", "internal/remote/backend.go", func(src string) string {
			return strings.Replace(src, "//lint:ignore errdrop", "//", 1)
		}, "errdrop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := copyRepo(t, root)
			p := filepath.Join(dst, filepath.FromSlash(tc.file))
			old, err := os.ReadFile(p)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			src := tc.plant(string(old))
			if src == string(old) {
				t.Fatalf("nothing planted in %s", tc.file)
			}
			if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			got := lintModule(t, dst)
			if len(got) == 0 {
				t.Fatalf("planted violation produced no finding")
			}
			for _, f := range got {
				if f.Analyzer != tc.want || f.File != tc.file {
					t.Errorf("finding %v, want only %s findings in %s", f, tc.want, tc.file)
				}
			}
		})
	}
}
