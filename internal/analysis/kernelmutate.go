package analysis

// kernelmutate: the hash-consing invariant, enforced through go/types. An
// interned kernel node (Term, Form, Type, MatchExpr) is shared by pointer
// across every structure that ever saw an equal node; its precomputed
// hashes and bloom signature were derived from the field values at
// construction. Writing a field after construction silently
// corrupts every identity-keyed cache downstream — so the only file allowed
// to write kernel node fields is internal/kernel/intern.go, where nodes are
// minted before publication. Unlike the AST-level internkernel analyzer
// (which catches raw composite literals by name shape), this one resolves
// the static type of the written-through expression, so writes via locals,
// fields, function results, and derefs are all caught.

import (
	"go/ast"
	"go/types"
)

// kernelNodeNames are the hash-consed node types of internal/kernel.
var kernelNodeNames = []string{"Term", "Form", "Type", "MatchExpr"}

var analyzerKernelMutate = &Analyzer{
	Name: "kernelmutate",
	Doc: "field writes through kernel.Term/Form/Type/MatchExpr values anywhere " +
		"outside internal/kernel/intern.go — interned nodes are immutable by " +
		"contract (their structural hashes were computed at construction), so a " +
		"post-construction write corrupts the hash-consing arena and every " +
		"identity-keyed cache; resolved via go/types, not name matching",
	Typed: runKernelMutate,
}

func runKernelMutate(m *Module) []Finding {
	m.Check()
	kernelPath := m.Path + "/internal/kernel"
	var out []Finding
	for _, tp := range m.Pkgs {
		if tp.Info == nil {
			continue
		}
		for _, f := range tp.Files {
			// intern.go is the minting site; test files are not
			// type-checked, so there is nothing to resolve in them.
			if f.Test || f.Name == "internal/kernel/intern.go" {
				continue
			}
			file, info := f, tp.Info
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						out = append(out, kernelWrite(tp, file, info, lhs, kernelPath)...)
					}
				case *ast.IncDecStmt:
					out = append(out, kernelWrite(tp, file, info, s.X, kernelPath)...)
				}
				return true
			})
		}
	}
	return out
}

// kernelWrite reports a finding when lhs writes through a kernel node:
// node.Field = v, node.Args[i] = v, *ptr = v, with any paren/index/deref
// chain above the selector.
func kernelWrite(tp *TypedPackage, f *GoFile, info *types.Info, lhs ast.Expr, kernelPath string) []Finding {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
			continue
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			// *p = v where p is a *kernel.Term: replaces the pointee
			// wholesale, same corruption.
			if t := info.Types[e.X].Type; t != nil {
				if name, ok := kernelNodeType(t, kernelPath); ok {
					return []Finding{kernelMutateFinding(tp, f, e, name, "*"+name+" pointee overwritten")}
				}
			}
			return nil
		case *ast.SelectorExpr:
			if t := info.Types[e.X].Type; t != nil {
				if name, ok := kernelNodeType(t, kernelPath); ok {
					return []Finding{kernelMutateFinding(tp, f, e, name, name+"."+e.Sel.Name+" written")}
				}
			}
			return nil
		default:
			return nil
		}
	}
}

func kernelMutateFinding(tp *TypedPackage, f *GoFile, n ast.Node, name, what string) Finding {
	return Finding{
		Analyzer: "kernelmutate", File: f.Name, Line: tp.line(n),
		Message: what + " outside intern.go: interned kernel nodes are immutable " +
			"(hashes precomputed at construction); build a new node through the " +
			"interning constructors instead",
	}
}

// kernelNodeType reports whether t (possibly behind pointers/aliases) is a
// kernel node type, returning its bare name.
func kernelNodeType(t types.Type, kernelPath string) (string, bool) {
	for _, name := range kernelNodeNames {
		if namedIn(t, kernelPath, name) {
			return name, true
		}
	}
	return "", false
}
