package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// writeTree materializes a fixture module on disk; keys are slash-separated
// module-relative paths.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadFixture loads and type-checks a fixture module, module path
// example.com/fix, failing the test on any parse or type error (fixtures
// are meant to be well-typed).
func loadFixture(t *testing.T, files map[string]string) *Module {
	t.Helper()
	files["go.mod"] = fixGomod
	m, err := LoadModule(writeTree(t, files))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return m
}

const fixGomod = "module example.com/fix\n\ngo 1.22\n"

func TestLoadModuleMultiPackage(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"a/a.go": `package a

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

func NewCounter() *Counter { return &Counter{} }
`,
		// An in-package test exports a helper to the external test (the
		// export_test.go idiom), so x_test.go checks only against a
		// checked with its tests.
		"a/export_test.go": `package a

func (c *Counter) N() int { return c.n }
`,
		"a/x_test.go": `package a_test

import "example.com/fix/a"

func count() int {
	c := a.NewCounter()
	c.Inc()
	return c.N()
}
`,
		"b/b.go": `package b

import "example.com/fix/a"

func Use() {
	c := a.NewCounter()
	c.Inc()
}
`,
	})
	if m.Path != "example.com/fix" {
		t.Fatalf("module path = %q, want example.com/fix", m.Path)
	}
	if len(m.Pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(m.Pkgs))
	}
	tp := m.Pkgs[0]
	if tp.Dir != "a" || tp.Types == nil || tp.Info == nil {
		t.Fatalf("package %s first, want a loaded with type info", tp.Dir)
	}
	if tp.Path != "example.com/fix/a" {
		t.Fatalf("package a path = %q", tp.Path)
	}
	// The external test is checked too, against the variant with a's
	// in-package tests: c.N resolves, or loadFixture fails.
	xtest := tp.Files[len(tp.Files)-1]
	if xtest.Name != "a/x_test.go" || tp.Info.Defs[xtest.AST.Decls[1].(*ast.FuncDecl).Name] == nil {
		t.Fatalf("%s carries no types", xtest.Name)
	}
	// Cross-package resolution: b's use of a.NewCounter resolves to the
	// same object a declares.
	if obj := tp.Types.Scope().Lookup("NewCounter"); obj == nil {
		t.Fatal("NewCounter not in package a scope")
	}
}

func TestGoDirsSortedAndFiltered(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":          fixGomod,
		"b/b.go":          "package b\n",
		"a/a.go":          "package a\n",
		"a/testdata/x.go": "package x\n",
		"_skip/s.go":      "package s\n",
		".hidden/h.go":    "package h\n",
		"c/notgo.txt":     "text\n",
		"a/inner/deep.go": "package inner\n",
	})
	dirs, err := goDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "a/inner", "b"}
	if len(dirs) != len(want) {
		t.Fatalf("goDirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("goDirs = %v, want %v", dirs, want)
		}
	}
}
