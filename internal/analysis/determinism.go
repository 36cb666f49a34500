package analysis

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the package-path prefixes in which DESIGN.md's
// determinism guarantee ("all randomness flows from explicit seeds") is
// load-bearing: the experiment path and every package a search calls.
// Test files are exempt (benchmarks may legitimately look at the clock).
var determinismScope = []string{
	"internal/checker",
	"internal/core",
	"internal/eval",
	"internal/fs",
	"internal/kernel",
	"internal/model",
	"internal/prompt",
	"internal/tactic",
}

// randConstructors are the package-level math/rand functions that do not
// draw from the implicitly seeded global source; every other one does.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

var analyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock and implicitly seeded randomness on the experiment path " +
		"(internal/{checker,core,eval,fs,kernel,model,prompt,tactic}): time.Now, " +
		"top-level math/rand functions, and rand.New whose source is not an " +
		"explicit inline rand.NewSource",
	Go: runDeterminism,
}

func runDeterminism(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		if !inScope(p.Dir, determinismScope) {
			continue
		}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn := pkgFunc(p.Info, n); isFunc(fn, "time", "Now") {
						out = append(out, m.finding("determinism", f, n,
							"time.Now breaks reproducibility; derive timing-free behaviour or pass timestamps in"))
					} else if fn != nil && fn.Pkg().Path() == "math/rand" && !randConstructors[fn.Name()] {
						out = append(out, m.finding("determinism", f, n, "package-level math/rand."+fn.Name()+
							" uses the implicitly seeded global source; thread a *rand.Rand built from an explicit seed"))
					}
				case *ast.CallExpr:
					// The seed must be visibly explicit at the construction
					// site, not hidden behind an opaque Source value.
					if isFunc(calledFunc(p.Info, n), "math/rand", "New") && !seededInline(p.Info, n) {
						out = append(out, m.finding("determinism", f, n,
							"rand.New without an inline rand.NewSource(seed); make the seed explicit at the construction site"))
					}
				}
				return true
			})
		}
	}
	return out
}

// seededInline reports whether a rand.New call's one argument is a
// rand.NewSource call.
func seededInline(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, ok := call.Args[0].(*ast.CallExpr)
	return ok && isFunc(calledFunc(info, inner), "math/rand", "NewSource")
}
