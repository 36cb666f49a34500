package analysis

// kernelmutate: the hash-consing invariant, enforced through go/types. An
// interned kernel node (Term, Form, Type, MatchExpr) is shared by pointer
// across every structure that ever saw an equal node, and its precomputed
// hashes and bloom signature were derived from its field values at
// construction. Outside internal/kernel/intern.go, tests included, a node is
// neither written nor built as a raw composite literal, unless the literal
// goes straight into an interning builder. A raw node gets no structural
// hash or variable signature, so every key and substitution fast path built
// on them is wrong for it, and Term.Equal and Type.Equal — pointer
// comparisons — call it unequal to its structural twin; a field write after
// construction silently corrupts every identity-keyed cache downstream.
// Both are found by the static type of the literal or of the written-through
// expression, so elided literal types and writes via locals, fields,
// function results and derefs are all caught.

import (
	"go/ast"
	"go/types"
	"slices"
)

// kernelNodeNames are the hash-consed node types of internal/kernel.
var kernelNodeNames = []string{"Term", "Form", "Type", "MatchExpr"}

// internBuilders are the kernel functions allowed to receive a raw node
// literal: they finish construction by hashing and arena lookup.
var internBuilders = map[string]bool{
	"finishForm": true,
	"internTerm": true,
	"internForm": true,
	"internType": true,
}

var analyzerKernelMutate = &Analyzer{
	Name: "kernelmutate",
	Doc: "kernel nodes (Term, Form, Type, MatchExpr) are built and written only in " +
		"internal/kernel/intern.go, tests included: a raw composite literal elsewhere " +
		"(other than one passed straight into an interning builder) carries no " +
		"structural hash and is not canonical, and a field write after construction " +
		"corrupts the hash-consing arena and every identity-keyed cache",
	Go: runKernelMutate,
}

func runKernelMutate(m *Module) []Finding {
	kernelPath := m.Path + "/internal/kernel"
	var out []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			// intern.go is the minting site.
			if f.Name == "internal/kernel/intern.go" {
				continue
			}
			info := p.Info
			// Literals passed (possibly via &) straight into an interning
			// builder are the construction idiom itself, not a bypass. The
			// walk reaches a call before its arguments.
			allowed := map[*ast.CompositeLit]bool{}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CallExpr:
					if fn := calledFunc(info, s); fn != nil && fn.Pkg().Path() == kernelPath && internBuilders[fn.Name()] {
						for _, arg := range s.Args {
							if u, ok := arg.(*ast.UnaryExpr); ok {
								arg = u.X
							}
							if lit, ok := arg.(*ast.CompositeLit); ok {
								allowed[lit] = true
							}
						}
					}
				case *ast.CompositeLit:
					if name := kernelNode(info.TypeOf(s), kernelPath); name != "" && !allowed[s] {
						out = append(out, m.finding("kernelmutate", f, s, "raw "+name+
							" composite literal bypasses the hash-consing arena; build kernel nodes "+
							"through the interning constructors (V, A, NewMatch, Eq, Pred, Conn, Quant, Ty, TyVar, MkType, ...)"))
					}
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						out = append(out, kernelWrite(m, f, info, lhs, kernelPath)...)
					}
				case *ast.IncDecStmt:
					out = append(out, kernelWrite(m, f, info, s.X, kernelPath)...)
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
func kernelWrite(m *Module, f *GoFile, info *types.Info, lhs ast.Expr, kernelPath string) []Finding {
	what := ""
	for what == "" {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			// *p = v where p is a *kernel.Term: replaces the pointee
			// wholesale, same corruption.
			name := kernelNode(info.TypeOf(e.X), kernelPath)
			if name == "" {
				return nil
			}
			what = "*" + name + " pointee overwritten"
		case *ast.SelectorExpr:
			name := kernelNode(info.TypeOf(e.X), kernelPath)
			if name == "" {
				return nil
			}
			what = name + "." + e.Sel.Name + " written"
		default:
			return nil
		}
	}
	return []Finding{m.finding("kernelmutate", f, lhs, what+" outside intern.go: interned kernel nodes are "+
		"immutable (hashes precomputed at construction); build a new node through the "+
		"interning constructors instead")}
}

// kernelNode returns the name of the kernel node type t is, behind any
// pointers and aliases, or "" when it is none.
func kernelNode(t types.Type, kernelPath string) string {
	for {
		p, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != kernelPath || !slices.Contains(kernelNodeNames, obj.Name()) {
		return ""
	}
	return obj.Name()
}
