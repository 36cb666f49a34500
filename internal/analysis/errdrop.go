package analysis

// errdrop: discarded error returns on the wire and persistence paths.
// internal/protocol, internal/remote, and internal/checker implement the
// wire's robustness ladder — request deadlines, retries on a fresh session,
// local-only degradation — and every rung is triggered by an error value; a
// call whose error is dropped on the floor silently voids the ladder (the
// failure neither retries nor degrades, it just disappears). internal/store
// is in scope for the same reason with different stakes: a dropped fsync,
// close, or rename error on the proof-cache persistence path silently turns
// "crash-safe" into "usually fine". Deferred calls are exempt: `defer
// c.Close()` on an already-failed path is the accepted teardown idiom, and
// flagging it would bury the real findings.

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDropScope lists the package-path prefixes where a dropped error voids
// the robustness ladder.
var errDropScope = []string{
	"internal/protocol",
	"internal/remote",
	"internal/checker",
	"internal/store",
}

var analyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "discarded error returns in internal/{protocol,remote,checker,store}: " +
		"calls used as statements whose results include an error, and error " +
		"results assigned to _ — a dropped error silently skips the wire's " +
		"retry/degrade ladder, or voids the proof store's crash-safety " +
		"(deferred Close calls exempt)",
	Typed: runErrDrop,
}

func inErrDropScope(dir string) bool {
	for _, p := range errDropScope {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

func runErrDrop(m *Module) []Finding {
	m.Check()
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	for _, tp := range m.Pkgs {
		if tp.Info == nil || !inErrDropScope(tp.Dir) {
			continue
		}
		tp, info := tp, tp.Info
		for _, f := range tp.Files {
			if f.Test {
				continue
			}
			f := f
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.ExprStmt:
					call, ok := s.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					if !callReturnsError(call, info, errType) {
						return true
					}
					out = append(out, Finding{
						Analyzer: "errdrop", File: f.Name, Line: tp.line(s),
						Message: "error result of " + calleeLabel(call) + " dropped; every rung of the " +
							"robustness ladder is error-triggered — handle it or suppress with a reason",
					})
				case *ast.AssignStmt:
					out = append(out, blankErrAssigns(tp, f, info, s, errType)...)
				}
				return true
			})
		}
	}
	return out
}

// blankErrAssigns flags `_`-bound error results: `x, _ := f()` and
// `_ = f()` where the discarded position is an error.
func blankErrAssigns(tp *TypedPackage, f *GoFile, info *types.Info, s *ast.AssignStmt, errType types.Type) []Finding {
	if len(s.Rhs) != 1 {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sig := callSignature(call, info)
	if sig == nil {
		return nil
	}
	results := sig.Results()
	var out []Finding
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= results.Len() {
			continue
		}
		if !types.Identical(results.At(i).Type(), errType) {
			continue
		}
		out = append(out, Finding{
			Analyzer: "errdrop", File: f.Name, Line: tp.line(s),
			Message: "error result of " + calleeLabel(call) + " assigned to _; every rung of the " +
				"robustness ladder is error-triggered — handle it or suppress with a reason",
		})
	}
	return out
}

func callReturnsError(call *ast.CallExpr, info *types.Info, errType types.Type) bool {
	sig := callSignature(call, info)
	if sig == nil {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// calleeLabel renders a call target for messages: "f", "pkg.F", "x.M".
func calleeLabel(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
