package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// GoFile is one parsed Go source file.
type GoFile struct {
	Name string // display path, e.g. "internal/eval/runner.go"
	AST  *ast.File
	Test bool // *_test.go
}

// GoPackage is one directory of parsed Go files (the unit Go analyzers run
// over).
type GoPackage struct {
	Fset *token.FileSet
	// Dir is the slash-separated package directory relative to the module
	// root, e.g. "internal/eval". Analyzers use it for scoping.
	Dir   string
	Files []*GoFile

	suppressions      []suppression
	suppressionErrors []Finding
}

func path(dir, name string) string {
	if dir == "" || dir == "." {
		return name
	}
	return dir + "/" + name
}

// AddFile parses one source file into the package (exposed for fixture
// tests, which build packages from string literals).
func (p *GoPackage) AddFile(name, src string) error {
	f, err := parser.ParseFile(p.Fset, name, src, parser.ParseComments)
	if err != nil {
		return err
	}
	p.Files = append(p.Files, &GoFile{Name: name, AST: f, Test: strings.HasSuffix(name, "_test.go")})
	sups, bad := goSuppressions(p.Fset, name, f)
	p.suppressions = append(p.suppressions, sups...)
	p.suppressionErrors = append(p.suppressionErrors, bad...)
	return nil
}

// line returns the 1-based line of a node within the package.
func (p *GoPackage) line(n ast.Node) int { return p.Fset.Position(n.Pos()).Line }

// importLocal returns the local name under which importPath is imported in
// f, or "" when it is not imported (blank and dot imports return "").
func importLocal(f *ast.File, importPath string) string {
	for _, spec := range f.Imports {
		pathVal, err := strconv.Unquote(spec.Path.Value)
		if err != nil || pathVal != importPath {
			continue
		}
		if spec.Name != nil {
			if spec.Name.Name == "_" || spec.Name.Name == "." {
				return ""
			}
			return spec.Name.Name
		}
		if i := strings.LastIndex(pathVal, "/"); i >= 0 {
			return pathVal[i+1:]
		}
		return pathVal
	}
	return ""
}

// isPkgCall reports whether e is a selector pkgName.funcName where pkgName
// is a plain identifier (a package qualifier, by construction of the
// callers, which pass names obtained from importLocal).
func isPkgSelector(e ast.Expr, pkgName, funcName string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || pkgName == "" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkgName && sel.Sel.Name == funcName
}
