package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// faultpointPath is the import path of the fault-injection package whose
// closed site registry this analyzer enforces statically.
const faultpointPath = "llmfscq/internal/faultpoint"

// faultSiteConsts mirrors the faultpoint site registry: spec name -> the
// exported constant that spells it. Kept as a literal copy so the analysis
// package stays free of non-stdlib module dependencies; a test asserts it
// matches faultpoint.Sites() so the two cannot drift.
var faultSiteConsts = map[string]string{
	"drop-conn":      "DropConn",
	"stall":          "Stall",
	"corrupt-answer": "CorruptAnswer",
	"partial-write":  "PartialWrite",
}

var analyzerFaultpoint = &Analyzer{
	Name: "faultpoint",
	Doc: "enforces the closed fault-site registry at call sites: outside " +
		"internal/faultpoint, sites must be spelled with the registry constants " +
		"(faultpoint.DropConn, ...), never as string literals, and a literal " +
		"naming a site missing from the registry is an error",
	Go: runFaultpoint,
}

func runFaultpoint(pkg *GoPackage) []Finding {
	// The registry itself necessarily defines sites from string literals.
	if pkg.Dir == "internal/faultpoint" {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		fp := importLocal(f.AST, faultpointPath)
		if fp == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			lit := stringLit(call.Args[0])
			if lit == nil {
				return true
			}
			switch {
			case isPkgSelector(call.Fun, fp, "Site"):
				out = append(out, faultSiteFinding(pkg, f, lit, fp, "Site conversion"))
			case isSiteMethodCall(call.Fun):
				// An untyped string constant converts to Site implicitly, so
				// in.Fire("drop-conn") compiles; catch it here.
				sel := call.Fun.(*ast.SelectorExpr)
				out = append(out, faultSiteFinding(pkg, f, lit, fp, sel.Sel.Name+" argument"))
			}
			return true
		})
	}
	return out
}

// isSiteMethodCall reports whether e selects one of the faultpoint methods
// taking a Site (Injector.Fire, Injector.Hits, Plan.Hits). Without type
// info this matches any method of that name, but the analyzer only runs in
// files that import faultpoint, and a string-literal site argument to an
// unrelated Fire/Hits is vanishingly unlikely (and suppressible).
func isSiteMethodCall(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isIdent := sel.X.(*ast.Ident); !isIdent {
		if _, isSel := sel.X.(*ast.SelectorExpr); !isSel {
			return false
		}
	}
	return sel.Sel.Name == "Fire" || sel.Sel.Name == "Hits"
}

// stringLit returns e as a string literal, or nil.
func stringLit(e ast.Expr) *ast.BasicLit {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	return lit
}

func faultSiteFinding(pkg *GoPackage, f *GoFile, lit *ast.BasicLit, fp, where string) Finding {
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		name = lit.Value
	}
	msg := ""
	if constName, ok := faultSiteConsts[name]; ok {
		msg = where + " spells site " + lit.Value + " as a string literal; use the registry constant " +
			fp + "." + constName
	} else {
		msg = where + " names " + lit.Value + ", which is not in the fault-site registry (" +
			strings.Join(faultSiteNames(), ", ") + "); Fire would panic at runtime"
	}
	return Finding{Analyzer: "faultpoint", File: f.Name, Line: pkg.line(lit), Message: msg}
}

// faultSiteNames returns the registry spec names in the registry's order.
func faultSiteNames() []string {
	return []string{"drop-conn", "stall", "corrupt-answer", "partial-write"}
}
