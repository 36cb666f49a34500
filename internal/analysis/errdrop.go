package analysis

// errdrop: discarded error returns on the wire and persistence paths.
// internal/protocol, internal/remote, and internal/checker sit on the wire
// path, where a missed request deadline, a transport error or a malformed
// answer surfaces as an error value, and the remote backend drops that
// document's session and counts one failure on it; a call whose error is
// dropped on the floor lets a broken session pass as a clean one. internal/store
// is in scope for the same reason with different stakes: a dropped fsync,
// close, or rename error on the proof-cache persistence path silently turns
// "crash-safe" into "usually fine". Deferred calls are exempt: `defer
// c.Close()` on an already-failed path is the accepted teardown idiom, and
// flagging it would bury the real findings.

import (
	"go/ast"
	"go/types"
)

// errDropScope lists the package-path prefixes where a dropped error hides
// a wire failure or a persistence failure.
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
		"results assigned to _ — a dropped error lets a broken wire session " +
		"pass uncounted, or voids the proof store's crash-safety " +
		"(deferred Close calls exempt)",
	Go: runErrDrop,
}

// errDropCost ends both findings: what the dropped error would have told.
const errDropCost = "; a lost wire session would pass uncounted, or a store write or " +
	"fsync failure go unseen — handle it or suppress with a reason"

func runErrDrop(m *Module) []Finding {
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	for _, p := range m.Pkgs {
		if !inScope(p.Dir, errDropScope) {
			continue
		}
		info := p.Info
		for _, f := range p.Files {
			if f.Test {
				continue
			}
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
					out = append(out, m.finding("errdrop", f, s,
						"error result of "+calleeLabel(call)+" dropped"+errDropCost))
				case *ast.AssignStmt:
					out = append(out, blankErrAssigns(m, f, info, s, errType)...)
				}
				return true
			})
		}
	}
	return out
}

// blankErrAssigns flags `_`-bound error results: `x, _ := f()` and
// `_ = f()` where the discarded position is an error.
func blankErrAssigns(m *Module, f *GoFile, info *types.Info, s *ast.AssignStmt, errType types.Type) []Finding {
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
		out = append(out, m.finding("errdrop", f, s,
			"error result of "+calleeLabel(call)+" assigned to _"+errDropCost))
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

// callSignature resolves the signature of a call's callee, nil for type
// conversions and unresolvable dynamic calls.
func callSignature(call *ast.CallExpr, info *types.Info) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
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
