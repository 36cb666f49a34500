// Package analysis is a vet-style static-analysis framework for this
// repository's Go code. The analyzers run over the whole module,
// type-checked with go/types (tests included), and resolve every name and
// type they check through types.Info. They enforce the load-bearing
// conventions DESIGN.md promises: determinism (no wall-clock, no implicitly
// seeded randomness in any package a search runs), deterministic iteration
// (no output or slice accumulation driven by map-range order), WaitGroup
// hygiene in goroutines, kernel nodes minted and written only in the
// interning constructors, and no dropped errors on the wire and proof-store
// paths.
//
// Only the tier-1 tests run them: TestRepoLintClean runs the analyzers
// over this module, and any finding fails it. The checks of the
// proof corpus are not analyzers: they run over the loaded development,
// as (*corpus.Corpus).Lint.
//
// A finding in a Go source can be suppressed with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory; a suppression without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one registered check.
type Analyzer struct {
	Name string
	Doc  string
	// Go runs over the type-checked module.
	Go func(*Module) []Finding
}

// All returns every registered analyzer in a fixed, deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerMapOrder,
		analyzerGoroutine,
		analyzerKernelMutate,
		analyzerErrDrop,
	}
}

// RunGo type-checks the module, runs the analyzers among azs over it,
// applies the //lint:ignore suppressions, reports malformed ones, and
// returns the surviving findings sorted by position. A type error is
// Check's to report: the analyzers run over whatever types it leaves.
func RunGo(azs []*Analyzer, m *Module) []Finding {
	m.Check()
	var out []Finding
	for _, a := range azs {
		out = append(out, a.Go(m)...)
	}
	out = filterSuppressed(append(out, m.badDirectives...), m.suppressions)
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}

// inScope reports whether the package directory dir is one of the scope's
// prefixes or below one.
func inScope(dir string, scope []string) bool {
	for _, p := range scope {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// pkgFunc returns the package-level function id refers to, or nil when id
// names anything else: a method, a builtin, a variable, a type.
func pkgFunc(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// calledFunc returns the package-level function a call's callee names,
// through a package qualifier or a dot import, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkgFunc(info, fun)
	case *ast.SelectorExpr:
		return pkgFunc(info, fun.Sel)
	}
	return nil
}

// isFunc reports whether fn is the package-level function pkgPath.name.
func isFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
