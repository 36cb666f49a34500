package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

var analyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags `range` over a map whose body appends to a slice (without the slice " +
		"being sorted later in the same function), writes output, or draws from a " +
		"*math/rand.Rand: map iteration order is randomized, so each makes results " +
		"nondeterministic, the last even under a fixed seed",
	Go: runMapOrder,
}

// appendBuiltin is the predeclared append, which a package may shadow.
var appendBuiltin = types.Universe.Lookup("append")

func runMapOrder(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					out = append(out, lintFuncMapOrder(m, p.Info, f, fd.Body)...)
				}
			}
		}
	}
	return out
}

func lintFuncMapOrder(m *Module, info *types.Info, f *GoFile, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMap(info.TypeOf(rs.X)) {
			return true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if fn := calledFunc(info, v); fn != nil && fn.Pkg().Path() == "fmt" &&
					(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
					out = append(out, m.finding("maporder", f, v,
						"fmt."+fn.Name()+" inside range over a map; iteration order is randomized — iterate a sorted key slice"))
				} else if sel, ok := v.Fun.(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "WriteString" || sel.Sel.Name == "WriteByte" || sel.Sel.Name == "WriteRune") {
					out = append(out, m.finding("maporder", f, v,
						sel.Sel.Name+" inside range over a map; iteration order is randomized — iterate a sorted key slice"))
				} else if ok && isRandMethod(info, sel) {
					out = append(out, m.finding("maporder", f, v,
						"rand."+sel.Sel.Name+" draw inside range over a map; iteration order is randomized, so which "+
							"element gets which draw is too, whatever the seed — iterate a sorted key slice"))
				}
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(v.Lhs) {
						continue
					}
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[id] != appendBuiltin {
						continue
					}
					target, ok := v.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.ObjectOf(target)
					// A slice declared inside the range body is fresh every
					// iteration; its element order cannot leak map order.
					if obj == nil || rs.Body.Pos() <= obj.Pos() && obj.Pos() < rs.Body.End() {
						continue
					}
					if !sortedInFunc(info, body, obj) {
						out = append(out, m.finding("maporder", f, v,
							"appending to "+target.Name+" inside range over a map without sorting it afterwards; "+
								"iteration order is randomized — sort the slice or iterate sorted keys"))
					}
				}
			}
			return true
		})
		return true
	})
	return out
}

// isRandMethod reports whether sel names a method of *math/rand.Rand.
func isRandMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.TypeString(recv.Type(), nil) == "*math/rand.Rand"
}

// isMap reports whether t is a map type, directly or as a named type's
// underlying type.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedInFunc reports whether the function body sorts the variable obj:
// a call of a sort function, or of slices.Sort, SortFunc or SortStableFunc,
// that mentions obj among its arguments.
func sortedInFunc(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calledFunc(info, call)
		if fn == nil || fn.Pkg().Path() != "sort" && !(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort")) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
