package analysis

import (
	"go/ast"
	"go/types"
)

var analyzerGoroutine = &Analyzer{
	Name: "goroutine",
	Doc: "flags sync.WaitGroup.Add calls made inside the spawned goroutine " +
		"instead of before the go statement (racy: Wait can return before Add " +
		"runs), on any WaitGroup: a local, a parameter or a struct field. " +
		"Loop-variable capture is not checked: the module's go 1.22 directive " +
		"gives each iteration its own variable",
	Go: runGoroutine,
}

func runGoroutine(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
						out = append(out, addsInGoroutine(m, p.Info, f, lit)...)
					}
				}
				return true
			})
		}
	}
	return out
}

// addsInGoroutine flags the WaitGroup Add calls in a goroutine's body. A
// nested go statement is left to the walk that reaches it, so each call is
// reported once.
func addsInGoroutine(m *Module, info *types.Info, f *GoFile, lit *ast.FuncLit) []Finding {
	var out []Finding
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "(*sync.WaitGroup).Add" {
				out = append(out, m.finding("goroutine", f, v, types.ExprString(sel.X)+
					".Add inside the spawned goroutine races with Wait; call Add before the go statement"))
			}
		}
		return true
	})
	return out
}
