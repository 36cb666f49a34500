package analysis

// Module loading: every Go analyzer runs over go/types-checked packages, so
// it resolves names and types (time.Now, a map, a WaitGroup, a kernel node)
// instead of matching their spelling. The loader here is deliberately
// stdlib-only — no golang.org/x/tools. LoadModule parses every file once,
// collecting the //lint:ignore suppressions as it goes; Check type-checks.
//
// Import resolution is a two-way split:
//
//   - module-local paths (the go.mod module path and below) are type-checked
//     recursively from the already-parsed sources, in dependency order, with
//     results cached per package;
//   - everything else (the standard library) goes through go/importer's
//     source compiler, shared process-wide behind a mutex, with cgo disabled
//     so packages like net resolve to their pure-Go variants.
//
// Each package is checked together with its in-package _test.go files, as
// go test builds it, and once every package is checked, its external tests
// (package p_test) against that variant, so test files carry types too.
// Packages that import p see the variant with tests: no in-package test in
// this module imports a package that depends on its own, so the one variant
// serves both.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// GoFile is one parsed Go source file.
type GoFile struct {
	Name string // display path, e.g. "internal/eval/runner.go"
	AST  *ast.File
	Test bool // *_test.go
}

// Package is one directory of the module: its parsed files, tests included,
// and after Check their types.
type Package struct {
	// Dir is the slash-separated package directory relative to the module
	// root, e.g. "internal/eval". Analyzers use it for scoping.
	Dir string
	// Path is the package's import path (module path + "/" + Dir).
	Path  string
	Files []*GoFile
	// Types and Info are populated by Module.Check (nil before). Types is
	// the package with its in-package tests; Info covers every file in
	// Files, external tests included.
	Types *types.Package
	Info  *types.Info
	// TypeErrs collects type-checking diagnostics for this package. The
	// repository's own packages must check cleanly (go build and go vet are
	// gates).
	TypeErrs []error
}

// Module is a parsed (and, after Check, type-checked) Go module: the unit
// the Go analyzers run over.
type Module struct {
	// Root is the filesystem root (the directory holding go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is shared by every package in the module.
	Fset *token.FileSet
	// Pkgs holds every package, sorted by Dir.
	Pkgs []*Package

	byPath map[string]*Package
	// suppressions and badDirectives are the //lint:ignore directives of
	// every file, well-formed and malformed.
	suppressions  []suppression
	badDirectives []Finding

	checked  bool
	checkErr error
}

// LoadModule parses every Go package under root (a directory containing
// go.mod). Type-checking is deferred until Check.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
	}
	for _, dir := range dirs {
		p := &Package{Dir: dir, Path: importPath(modPath, dir)}
		if err := m.parseDir(p); err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, p)
		m.byPath[p.Path] = p
	}
	return m, nil
}

// parseDir parses every .go file in p's directory into p, in name order.
func (m *Module) parseDir(p *Package) error {
	osDir := filepath.Join(m.Root, filepath.FromSlash(p.Dir))
	entries, err := os.ReadDir(osDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(osDir, e.Name()))
		if err != nil {
			return err
		}
		name := path(p.Dir, e.Name())
		// Names resolve through go/types, so the parser's own object
		// resolution would be wasted work.
		f, err := parser.ParseFile(m.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.Files = append(p.Files, &GoFile{Name: name, AST: f, Test: strings.HasSuffix(name, "_test.go")})
		sups, bad := goSuppressions(m.Fset, name, f)
		m.suppressions = append(m.suppressions, sups...)
		m.badDirectives = append(m.badDirectives, bad...)
	}
	return nil
}

// finding builds a Finding of the named analyzer at node n of file f.
func (m *Module) finding(analyzer string, f *GoFile, n ast.Node, msg string) Finding {
	return Finding{Analyzer: analyzer, File: f.Name, Line: m.Fset.Position(n.Pos()).Line, Message: msg}
}

func path(dir, name string) string {
	if dir == "" || dir == "." {
		return name
	}
	return dir + "/" + name
}

// importPath maps a module-relative dir to an import path.
func importPath(modPath, dir string) string {
	if dir == "" || dir == "." {
		return modPath
	}
	return modPath + "/" + dir
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	src, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// goDirs returns the module-relative slash paths of every directory under
// root containing .go files, skipping hidden, underscore, and testdata
// directories.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for dir := range seen {
		out = append(out, dir)
	}
	sort.Strings(out)
	return out, nil
}

// ---------------------------------------------------------------------------
// Type-checking.

// stdImporter is the process-wide source importer for non-module (standard
// library) packages. Shared across LoadModule calls so the stdlib closure is
// type-checked once per process, not once per module load; serialized by
// stdImpMu because the underlying srcimporter is not safe for concurrent
// Import calls.
var (
	stdImpOnce sync.Once
	stdImp     types.Importer
	stdImpMu   sync.Mutex
)

func stdImport(path string) (*types.Package, error) {
	stdImpOnce.Do(func() {
		// Pure-Go variants only: the source importer cannot run cgo, and
		// every package this module pulls in (net included) has a cgo-free
		// configuration.
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	stdImpMu.Lock()
	defer stdImpMu.Unlock()
	return stdImp.Import(path)
}

// moduleImporter resolves imports during Module.Check: module-local paths
// recurse into the module's own parsed sources, everything else delegates to
// the shared stdlib source importer.
type moduleImporter struct {
	m        *Module
	checking map[string]bool
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == imp.m.Path || strings.HasPrefix(path, imp.m.Path+"/") {
		p, ok := imp.m.byPath[path]
		if !ok {
			return nil, fmt.Errorf("analysis: import %q not found in module %s", path, imp.m.Path)
		}
		if imp.checking[path] {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		imp.check(p)
		return p.Types, nil
	}
	return stdImport(path)
}

// check type-checks one package with its in-package tests (idempotent;
// recursion through Import handles dependency order).
func (imp *moduleImporter) check(p *Package) {
	if p.Types != nil {
		return
	}
	imp.checking[p.Path] = true
	defer delete(imp.checking, p.Path)

	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	p.Types = imp.checkFiles(p, p.Path, false)
}

// checkFiles type-checks p's external test files (xtest) or all its other
// files as the package path, recording into p.Info: its maps are keyed by
// syntax nodes, and the two file sets are disjoint. conf.Error is set, so
// Check records every error in TypeErrs and still returns a (possibly
// incomplete) package; Module.Check reports the first.
func (imp *moduleImporter) checkFiles(p *Package, path string, xtest bool) *types.Package {
	var files []*ast.File
	for _, f := range p.Files {
		if (f.Test && strings.HasSuffix(f.AST.Name.Name, "_test")) == xtest {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	pkg, _ := conf.Check(path, imp.m.Fset, files, p.Info)
	return pkg
}

// Check type-checks every package in the module (idempotent). It returns
// the first type error, if any; every package still gets its Info, which
// analyzers run over.
func (m *Module) Check() error {
	if m.checked {
		return m.checkErr
	}
	m.checked = true
	imp := &moduleImporter{m: m, checking: map[string]bool{}}
	for _, p := range m.Pkgs {
		imp.check(p)
	}
	// External tests come last, as go test builds them: nothing imports
	// one, and one may import a package that imports its own (tactic_test
	// imports corpus).
	for _, p := range m.Pkgs {
		imp.checkFiles(p, p.Path+"_test", true)
	}
	for _, p := range m.Pkgs {
		if len(p.TypeErrs) > 0 {
			m.checkErr = fmt.Errorf("analysis: %s: %v", p.Path, p.TypeErrs[0])
			break
		}
	}
	return m.checkErr
}
