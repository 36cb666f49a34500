package analysis

import (
	"go/ast"
)

// internNodeTypes are the kernel's hash-consed node types. Constructing one
// as a raw composite literal bypasses the interning arena: the node gets no
// structural hash or variable signature, so every key and substitution fast
// path built on them is wrong for it, and Term.Equal and Type.Equal — pointer
// comparisons that rely on canonical nodes only ever being minted inside
// intern.go — call it unequal to its structural twin.
var internNodeTypes = map[string]bool{
	"Term":      true,
	"Form":      true,
	"Type":      true,
	"MatchExpr": true,
}

// internBuilders are the intern.go functions allowed to receive a raw node
// literal: they finish construction by hashing and arena lookup.
var internBuilders = map[string]bool{
	"finishForm": true,
	"internTerm": true,
	"internForm": true,
	"internType": true,
}

var analyzerInternKernel = &Analyzer{
	Name: "internkernel",
	Doc: "kernel nodes (Term, Form, Type, MatchExpr) must be built through the " +
		"interning constructors in internal/kernel/intern.go, never as raw composite " +
		"literals, in tests too: raw nodes carry no structural hash and are not " +
		"canonical, so their keys, substitution fast paths and pointer equality are wrong",
	Go: runInternKernel,
}

func runInternKernel(pkg *GoPackage) []Finding {
	var out []Finding
	inKernel := pkg.Dir == "internal/kernel"
	for _, f := range pkg.Files {
		// intern.go is where canonical nodes are minted.
		if inKernel && f.Name == "internal/kernel/intern.go" {
			continue
		}
		kernelPkg := ""
		if !inKernel {
			kernelPkg = importLocal(f.AST, "llmfscq/internal/kernel")
			if kernelPkg == "" {
				continue
			}
		}
		// Literals passed (possibly via &) straight into an interning builder
		// are the construction idiom itself, not a bypass.
		allowed := map[*ast.CompositeLit]bool{}
		if inKernel {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || !internBuilders[id.Name] {
					return true
				}
				for _, arg := range call.Args {
					if u, ok := arg.(*ast.UnaryExpr); ok {
						arg = u.X
					}
					if lit, ok := arg.(*ast.CompositeLit); ok {
						allowed[lit] = true
					}
				}
				return true
			})
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || allowed[lit] {
				return true
			}
			name := ""
			switch t := lit.Type.(type) {
			case *ast.Ident:
				if inKernel {
					name = t.Name
				}
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok && !inKernel && x.Name == kernelPkg {
					name = t.Sel.Name
				}
			}
			if !internNodeTypes[name] {
				return true
			}
			out = append(out, Finding{
				Analyzer: "internkernel", File: f.Name, Line: pkg.line(lit),
				Message: "raw " + name + " composite literal bypasses the hash-consing " +
					"arena; build kernel nodes through the interning constructors " +
					"(V, A, NewMatch, Eq, Pred, Conn, Quant, Ty, TyVar, MkType, ...)",
			})
			return true
		})
	}
	return out
}
