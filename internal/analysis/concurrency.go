package analysis

import (
	"go/ast"
	"go/token"
)

var analyzerGoroutine = &Analyzer{
	Name: "goroutine",
	Doc: "flags sync.WaitGroup.Add calls made inside the spawned goroutine " +
		"instead of before the go statement (racy: Wait can return before Add " +
		"runs). Loop-variable capture is not checked: the module's go 1.22 " +
		"directive gives each iteration its own variable",
	Go: runGoroutine,
}

func runGoroutine(pkg *GoPackage) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			wg := waitGroupObjects(fd)
			if len(wg) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
						out = append(out, addsInGoroutine(pkg, f, lit, wg)...)
					}
				}
				return true
			})
		}
	}
	return out
}

// waitGroupObjects collects the declaration objects of sync.WaitGroup
// variables (params and var declarations) in the function.
func waitGroupObjects(fd *ast.FuncDecl) map[*ast.Object]bool {
	wg := map[*ast.Object]bool{}
	isWG := func(t ast.Expr) bool {
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == "sync" && sel.Sel.Name == "WaitGroup"
	}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isWG(field.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Obj != nil {
					wg[name.Obj] = true
				}
			}
		}
	}
	add(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || vs.Type == nil || !isWG(vs.Type) {
				continue
			}
			for _, name := range vs.Names {
				if name.Obj != nil {
					wg[name.Obj] = true
				}
			}
		}
		return true
	})
	return wg
}

// addsInGoroutine flags the WaitGroup Add calls in a goroutine's body. A
// nested go statement is left to the walk that reaches it, so each call is
// reported once.
func addsInGoroutine(pkg *GoPackage, f *GoFile, lit *ast.FuncLit, wg map[*ast.Object]bool) []Finding {
	var out []Finding
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj != nil && wg[id.Obj] {
				out = append(out, Finding{
					Analyzer: "goroutine", File: f.Name, Line: pkg.line(v),
					Message: id.Name + ".Add inside the spawned goroutine races with Wait; call Add before the go statement",
				})
			}
		}
		return true
	})
	return out
}
