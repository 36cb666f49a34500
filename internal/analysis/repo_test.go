package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// lintModule runs the Go family over the module at root: the gate
// TestRepoLintClean holds this repository to. A type error fails it, since
// the analyzers would see only part of the module's types.
func lintModule(t *testing.T, root string) []Finding {
	t.Helper()
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	return RunGo(All(), m)
}

// TestRepoLintClean: the Go analyzers over this repository at HEAD produce
// no findings (the corpus family's twin is TestEmbeddedCorpusLintClean in
// internal/corpus).
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
		{"wall clock in tactic", "internal/tactic/clock.go", func(string) string {
			return "package tactic\n\nimport \"time\"\n\nfunc lintClock() time.Time { return time.Now() }\n"
		}, "determinism"},
		{"waitgroup field add in goroutine", "internal/store/proofcache.go", func(src string) string {
			return src + "\nfunc (c *Cache) lintSpawn() {\n\tgo func() {\n\t\tc.wg.Add(1)\n\t\tdefer c.wg.Done()\n\t}()\n}\n"
		}, "goroutine"},
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
