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

// TestRepoCatchesPlantedViolations plants one violation per leg, each in
// its own file, in one copy of the repository, and lints that copy once.
// The repository itself is clean (TestRepoLintClean), so every finding is
// a plant's: each planted file must have at least one finding, all from
// its leg's analyzer, and no other file may have any. The
// directive-removed legs delete one of the repository's two //lint:ignore
// directives, so they also show that each still suppresses a real
// finding.
func TestRepoCatchesPlantedViolations(t *testing.T) {
	root := repoRoot(t)
	legs := []struct {
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
		{"rand draw in map range", "internal/fs/disk/disk.go", func(src string) string {
			return src + "\nfunc lintCrash(dirty map[int]bool, rng *rand.Rand) (n int) {\n\tfor range dirty {\n\t\tn += rng.Intn(2)\n\t}\n\treturn n\n}\n"
		}, "maporder"},
	}
	dst := copyRepo(t, root)
	planted := map[string]bool{}
	for _, leg := range legs {
		p := filepath.Join(dst, filepath.FromSlash(leg.file))
		old, err := os.ReadFile(p)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		src := leg.plant(string(old))
		if src == string(old) {
			t.Fatalf("nothing planted in %s", leg.file)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		planted[leg.file] = true
	}
	byFile := map[string][]Finding{}
	for _, f := range lintModule(t, dst) {
		if !planted[f.File] {
			t.Errorf("finding %v in a file nothing was planted in", f)
		}
		byFile[f.File] = append(byFile[f.File], f)
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			got := byFile[leg.file]
			if len(got) == 0 {
				t.Fatalf("planted violation in %s produced no finding", leg.file)
			}
			for _, f := range got {
				if f.Analyzer != leg.want {
					t.Errorf("finding %v, want only %s findings in %s", f, leg.want, leg.file)
				}
			}
		})
	}
}
