// Package analysis is a vet-style static-analysis framework for this
// repository, with three analyzer families sharing one Finding type:
//
//   - Go analyzers inspect one package's sources with go/ast and enforce
//     the load-bearing conventions DESIGN.md promises: determinism (no
//     wall-clock, no implicitly seeded randomness in the experiment path),
//     deterministic iteration (no output or slice accumulation driven by
//     map-range order), WaitGroup hygiene in goroutines, and kernel nodes
//     built only through the interning constructors.
//
//   - Typed analyzers run over the whole module type-checked with go/types:
//     no writes through interned kernel nodes, and no dropped errors on the
//     wire and proof-store paths.
//
//   - Corpus analyzers inspect the vernacular proof corpus via the parsed
//     AST (internal/syntax) and the tactic-script AST (internal/tactic), and
//     enforce that the embedded development is a genuine verified library:
//     no alpha-equivalent duplicate theorem statements, no named-but-unused
//     intros hypotheses, no combinators wrapping tactics that can never
//     apply, and no references escaping a file's import closure.
//
// The tier-1 tests are the only driver: TestRepoLintClean runs the Go and
// typed families over this module, and internal/corpus's
// TestEmbeddedCorpusLintClean runs the corpus family over the embedded
// development. Any finding fails them.
//
// The package uses only the Go standard library plus this module's own
// syntax/kernel/tactic layers; it has no dependency on internal/corpus, so
// the corpus package can lint itself in its tests without an import cycle.
//
// A finding in a Go source can be suppressed with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory; a suppression without one is itself reported.
package analysis

import (
	"fmt"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one registered check. Exactly one of Go / Typed / Corpus is
// set, determining which family the analyzer belongs to.
type Analyzer struct {
	Name string
	Doc  string
	// Go runs over one parsed Go package (AST only — cheap tier).
	Go func(*GoPackage) []Finding
	// Typed runs over the whole type-checked module (go/types tier).
	Typed func(*Module) []Finding
	// Corpus runs over the parsed vernacular development.
	Corpus func(*Development) []Finding
}

// All returns every registered analyzer in a fixed, deterministic order:
// the Go family first, then the typed family, then the corpus family.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerMapOrder,
		analyzerGoroutine,
		analyzerInternKernel,
		analyzerKernelMutate,
		analyzerErrDrop,
		analyzerDupStmt,
		analyzerIntrosHyps,
		analyzerNoProgress,
		analyzerImportClosure,
	}
}

// RunGo runs the Go-family analyzers among azs over one package, applies
// line suppressions, and returns the surviving findings sorted by position.
func RunGo(azs []*Analyzer, pkg *GoPackage) []Finding {
	var out []Finding
	for _, a := range azs {
		if a.Go == nil {
			continue
		}
		out = append(out, a.Go(pkg)...)
	}
	out = append(out, pkg.suppressionErrors...)
	out = filterSuppressed(out, pkg.suppressions)
	sortFindings(out)
	return out
}

// RunTyped runs the typed-family analyzers among azs over a loaded module,
// applies the (single-parse, per-file) line suppressions collected at load
// time, and returns the surviving findings sorted by position. Malformed
// suppression directives are the AST family's to report (RunGo), so running
// both families over one module never reports them twice.
func RunTyped(azs []*Analyzer, m *Module) []Finding {
	var out []Finding
	for _, a := range azs {
		if a.Typed == nil {
			continue
		}
		out = append(out, a.Typed(m)...)
	}
	out = filterSuppressed(out, m.suppressionsAll())
	sortFindings(out)
	return out
}

// RunCorpus runs the corpus-family analyzers among azs over the
// development and returns their findings sorted by position.
func RunCorpus(azs []*Analyzer, dev *Development) []Finding {
	var out []Finding
	for _, a := range azs {
		if a.Corpus == nil {
			continue
		}
		out = append(out, a.Corpus(dev)...)
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}
