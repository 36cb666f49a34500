// Package analysis is a vet-style static-analysis framework for this
// repository, with two analyzer families sharing one Finding/registry API:
//
//   - Go analyzers (family A) inspect the repository's own Go sources with
//     go/ast + go/parser and enforce the load-bearing conventions DESIGN.md
//     promises: determinism (no wall-clock, no implicitly seeded
//     randomness in the experiment path), deterministic iteration (no
//     output or slice accumulation driven by map-range order), and
//     concurrency hygiene in the eval worker pool.
//
//   - Corpus analyzers (family B) inspect the vernacular proof corpus via
//     the parsed AST (internal/syntax) and the tactic-script AST
//     (internal/tactic), and enforce that the embedded development is a
//     genuine verified library: no alpha-equivalent duplicate theorem
//     statements, no named-but-unused intros hypotheses, no combinators
//     wrapping tactics that can never apply, and no references escaping a
//     file's import closure.
//
// The package uses only the Go standard library plus this module's own
// syntax/kernel/tactic layers; it has no dependency on internal/corpus, so
// the corpus package can lint itself in its tests without an import cycle.
//
// Findings can be suppressed at the source line with
//
//	//lint:ignore <analyzer> <reason>         (Go sources)
//	(* lint:ignore <analyzer> <reason> *)     (vernacular sources)
//
// placed on the offending line or the line directly above it. The reason is
// mandatory; a suppression without one is itself reported.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer. Family is the analyzer
// family that produced it ("go", "typed", or "corpus"), stamped by the Run*
// entry points so CI legs can split machine-readable output by tier.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Family   string `json:"family,omitempty"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
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

// Family returns the analyzer's family name: "go", "typed", or "corpus".
func (a *Analyzer) Family() string {
	switch {
	case a.Go != nil:
		return "go"
	case a.Typed != nil:
		return "typed"
	default:
		return "corpus"
	}
}

// Families lists the analyzer families in registry order.
var Families = []string{"go", "typed", "corpus"}

// All returns every registered analyzer in a fixed, deterministic order:
// the Go family first, then the typed family, then the corpus family.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerMapOrder,
		analyzerGoroutine,
		analyzerInternKernel,
		analyzerKernelMutate,
		analyzerAtomicMix,
		analyzerErrDrop,
		analyzerDupStmt,
		analyzerIntrosHyps,
		analyzerNoProgress,
		analyzerImportClosure,
	}
}

// ByName returns the analyzer with the given name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Select resolves -enable / -disable style comma lists against the
// registry. An empty enable list means "all"; disable is applied after.
func Select(enable, disable string) ([]*Analyzer, error) {
	pick := map[string]bool{}
	if strings.TrimSpace(enable) != "" {
		for _, n := range strings.Split(enable, ",") {
			n = strings.TrimSpace(n)
			if _, ok := ByName(n); !ok {
				return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
			}
			pick[n] = true
		}
	}
	drop := map[string]bool{}
	if strings.TrimSpace(disable) != "" {
		for _, n := range strings.Split(disable, ",") {
			n = strings.TrimSpace(n)
			if _, ok := ByName(n); !ok {
				return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
			}
			drop[n] = true
		}
	}
	var out []*Analyzer
	for _, a := range All() {
		if len(pick) > 0 && !pick[a.Name] {
			continue
		}
		if drop[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
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
	stampFamily(out, "go")
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
	stampFamily(out, "typed")
	sortFindings(out)
	return out
}

// RunCorpus runs the corpus-family analyzers among azs over the
// development, applies line suppressions, and returns the surviving
// findings sorted by position.
func RunCorpus(azs []*Analyzer, dev *Development) []Finding {
	var out []Finding
	for _, a := range azs {
		if a.Corpus == nil {
			continue
		}
		out = append(out, a.Corpus(dev)...)
	}
	out = append(out, dev.suppressionErrors...)
	out = filterSuppressed(out, dev.suppressions)
	stampFamily(out, "corpus")
	sortFindings(out)
	return out
}

func stampFamily(fs []Finding, family string) {
	for i := range fs {
		fs[i].Family = family
	}
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
