package analysis

// Typed loading: the typed analyzer family runs over go/types-checked
// packages, so it sees real types (kernel node writes, discarded error
// results) instead of name shapes. The loader
// here is deliberately stdlib-only — no golang.org/x/tools — and shares the
// single go/parser pass with the AST family: a Module wraps the *GoPackage
// values the Go analyzers run over (suppressions included, parsed exactly
// once in AddFile), and adds per-package *types.Package / *types.Info on
// demand.
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
// Test files are parsed (the AST family lints them) but excluded from
// type-checking: a directory may mix package p and package p_test, and the
// typed analyzers skip tests anyway.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// TypedPackage is one module package with (lazily attached) type
// information. The embedded GoPackage is the same value the AST family runs
// over: one parse serves all families.
type TypedPackage struct {
	*GoPackage
	// Path is the package's import path (module path + "/" + Dir).
	Path string
	// Types and Info are populated by Module.Check (nil before).
	Types *types.Package
	Info  *types.Info
	// TypeErrs collects type-checking diagnostics for this package. The
	// repository's own packages must check cleanly (go build is a tier-1
	// gate); fixtures in tests may tolerate soft errors.
	TypeErrs []error
}

// Module is a parsed (and, after Check, type-checked) Go module: the unit
// the typed analyzer family runs over.
type Module struct {
	// Root is the filesystem root (the directory holding go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is shared by every package in the module.
	Fset *token.FileSet
	// Pkgs holds every package, sorted by Dir.
	Pkgs []*TypedPackage

	byPath map[string]*TypedPackage

	checked  bool
	checkErr error
}

// LoadModule parses every Go package under root (a directory containing
// go.mod). Type-checking is deferred until Check (or the first accessor
// that needs types), so callers that only want the AST family pay only the
// parse.
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
		byPath: map[string]*TypedPackage{},
	}
	for _, dir := range dirs {
		gp, err := loadGoPackageInto(m.Fset, filepath.Join(root, filepath.FromSlash(dir)), dir)
		if err != nil {
			return nil, err
		}
		tp := &TypedPackage{GoPackage: gp, Path: importPath(modPath, dir)}
		m.Pkgs = append(m.Pkgs, tp)
		m.byPath[tp.Path] = tp
	}
	return m, nil
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
		tp, ok := imp.m.byPath[path]
		if !ok {
			return nil, fmt.Errorf("analysis: import %q not found in module %s", path, imp.m.Path)
		}
		if err := imp.check(tp); err != nil {
			return nil, err
		}
		return tp.Types, nil
	}
	return stdImport(path)
}

// check type-checks one package (idempotent; recursion through Import
// handles dependency order).
func (imp *moduleImporter) check(tp *TypedPackage) error {
	if tp.Types != nil {
		return nil
	}
	if imp.checking[tp.Path] {
		return fmt.Errorf("analysis: import cycle through %s", tp.Path)
	}
	imp.checking[tp.Path] = true
	defer delete(imp.checking, tp.Path)

	var files []*ast.File
	for _, f := range tp.Files {
		if f.Test {
			continue
		}
		files = append(files, f.AST)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { tp.TypeErrs = append(tp.TypeErrs, err) },
	}
	pkg, err := conf.Check(tp.Path, imp.m.Fset, files, info)
	// conf.Error was set, so Check returns the first soft error but still
	// produces a (possibly incomplete) package; keep it — the tier-1 build
	// gate guarantees the real module checks cleanly, and fixtures assert
	// on TypeErrs explicitly.
	_ = err
	tp.Types = pkg
	tp.Info = info
	return nil
}

// Check type-checks every package in the module (idempotent). It returns
// the first type error encountered anywhere, if any; the module is still
// usable afterwards (analyzers run over whatever type information exists).
func (m *Module) Check() error {
	if m.checked {
		return m.checkErr
	}
	m.checked = true
	imp := &moduleImporter{m: m, checking: map[string]bool{}}
	for _, tp := range m.Pkgs {
		if err := imp.check(tp); err != nil {
			m.checkErr = err
			return err
		}
	}
	for _, tp := range m.Pkgs {
		if len(tp.TypeErrs) > 0 && m.checkErr == nil {
			m.checkErr = fmt.Errorf("analysis: %s: %v", tp.Path, tp.TypeErrs[0])
		}
	}
	return m.checkErr
}

// suppressionsAll aggregates every package's (already parsed) suppressions,
// so the typed family filters through the same single-parse directives as
// the AST family.
func (m *Module) suppressionsAll() []suppression {
	var out []suppression
	for _, tp := range m.Pkgs {
		out = append(out, tp.suppressions...)
	}
	return out
}

// loadGoPackageInto parses every .go file in osDir into a package on the
// caller's FileSet, so a whole module shares one coordinate space. relDir
// is the module-root-relative slash path used in finding positions and
// analyzer scoping.
func loadGoPackageInto(fset *token.FileSet, osDir, relDir string) (*GoPackage, error) {
	entries, err := os.ReadDir(osDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	pkg := &GoPackage{Fset: fset, Dir: relDir}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(osDir, name))
		if err != nil {
			return nil, err
		}
		if err := pkg.AddFile(path(relDir, name), string(src)); err != nil {
			return nil, err
		}
	}
	return pkg, nil
}

// namedIn reports whether t (after stripping pointers and aliases) is the
// named type pkgPath.name, and returns the named type.
func namedIn(t types.Type, pkgPath, name string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(u)
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
