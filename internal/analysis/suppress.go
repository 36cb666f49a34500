package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// suppression is one parsed //lint:ignore directive. It silences findings
// of the named analyzer on its own line and on the line directly below it
// (so a directive can sit either on the offending line or just above it).
type suppression struct {
	File     string
	Line     int
	Analyzer string
}

func filterSuppressed(fs []Finding, sups []suppression) []Finding {
	if len(sups) == 0 {
		return fs
	}
	out := fs[:0]
	for _, f := range fs {
		ok := true
		for _, s := range sups {
			if s.File == f.File && s.Analyzer == f.Analyzer && (s.Line == f.Line || s.Line == f.Line-1) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, f)
		}
	}
	return out
}

const badDirective = "malformed lint:ignore directive: want `lint:ignore <analyzer> <reason>`"

// goSuppressions extracts //lint:ignore directives from a parsed Go file's
// comments. A directive without an analyzer and a reason is reported as a
// finding under the pseudo analyzer name "lint".
func goSuppressions(fset *token.FileSet, file string, f *ast.File) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			payload, ok := strings.CutPrefix(text, "lint:ignore")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			fields := strings.Fields(payload)
			if len(fields) < 2 {
				bad = append(bad, Finding{Analyzer: "lint", File: file, Line: line, Message: badDirective})
				continue
			}
			sups = append(sups, suppression{File: file, Line: line, Analyzer: fields[0]})
		}
	}
	return sups, bad
}
