package analysis

import (
	"go/types"
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

// loadFixture loads and type-checks a fixture module, failing the test on
// any parse or type error (fixtures are meant to be well-typed).
func loadFixture(t *testing.T, files map[string]string) *Module {
	t.Helper()
	m, err := LoadModule(writeTree(t, files))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, tp := range m.Pkgs {
		for _, te := range tp.TypeErrs {
			t.Fatalf("type error in %s: %v", tp.Path, te)
		}
	}
	return m
}

const fixGomod = "module example.com/fix\n\ngo 1.22\n"

func TestLoadModuleMultiPackage(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
		"a/a.go": `package a

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

func NewCounter() *Counter { return &Counter{} }
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
	tp, ok := m.Package("a")
	if !ok || tp.Types == nil || tp.Info == nil {
		t.Fatalf("package a not loaded with type info: ok=%v", ok)
	}
	if tp.Path != "example.com/fix/a" {
		t.Fatalf("package a path = %q", tp.Path)
	}
	// Cross-package resolution: b's use of a.NewCounter resolves to the
	// same object a declares.
	if obj := tp.Types.Scope().Lookup("NewCounter"); obj == nil {
		t.Fatal("NewCounter not in package a scope")
	}
}

// fixtureFunc finds a module function by name in the call graph.
func fixtureFunc(t *testing.T, g *CallGraph, name string) *types.Func {
	t.Helper()
	for fn := range g.Funcs {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %s not in call graph", name)
	return nil
}

func TestCallGraphMethodsAndInterfaceDispatch(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
		"m/m.go": `package m

type Runner interface{ Run() }

type fast struct{}

func (fast) Run() { helper() }

func helper() {}

func drive(r Runner) { r.Run() }

// Entry is the fixture's hot root.
//
//hot:root
func Entry() { drive(fast{}) }

func unreached() { helper() }
`,
	})
	roots := m.HotRoots()
	if len(roots) != 1 || roots[0].Name() != "Entry" {
		t.Fatalf("HotRoots = %v, want [Entry]", roots)
	}
	g := m.CallGraph()
	hot := g.HotSet()
	for _, name := range []string{"Entry", "drive", "Run", "helper"} {
		if !hot[fixtureFunc(t, g, name)] {
			t.Errorf("%s not in hot set; want reachable (static call, interface dispatch, or method)", name)
		}
	}
	if hot[fixtureFunc(t, g, "unreached")] {
		t.Error("unreached is in the hot set; no path from Entry exists")
	}
}

func TestCallGraphFuncLitAndReference(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"go.mod": fixGomod,
		"m/m.go": `package m

func apply(f func()) { f() }

func leaf() {}

//hot:root
func Entry() {
	apply(func() { leaf() })
	g := indirect
	_ = g
}

func indirect() {}
`,
	})
	g := m.CallGraph()
	hot := g.HotSet()
	// The FuncLit body is attributed to Entry, so leaf is reachable; a bare
	// function reference (address taken) conservatively marks indirect too.
	if !hot[fixtureFunc(t, g, "leaf")] {
		t.Error("leaf not hot: FuncLit body should be attributed to its enclosing declaration")
	}
	if !hot[fixtureFunc(t, g, "indirect")] {
		t.Error("indirect not hot: address-taken functions are conservatively reachable")
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
	dirs, err := GoDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "a/inner", "b"}
	if len(dirs) != len(want) {
		t.Fatalf("GoDirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("GoDirs = %v, want %v", dirs, want)
		}
	}
}
