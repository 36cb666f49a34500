package analysis

import "testing"

// kernelFixture returns a fixture module's files: a stand-in for
// internal/kernel (its node types, two that are not nodes, and one
// interning builder) plus extra, which may replace either kernel file.
func kernelFixture(extra map[string]string) map[string]string {
	files := map[string]string{
		"internal/kernel/kernel.go": `package kernel

type Term struct {
	Var  string
	Args []*Term
}

type MatchExpr struct{ Scrut *Term }

type MatchCase struct{ RHS *Term }

type Type struct{ Name string }

type TypedVar struct{ Name string }

type FormKind int

const FTrue FormKind = 0

type Form struct{ Kind FormKind }
`,
		"internal/kernel/intern.go": `package kernel

func finishForm(f *Form) *Form { return f }
`,
	}
	for name, src := range extra {
		files[name] = src
	}
	return files
}

func TestKernelMutateFires(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/kernel/intern.go": `package kernel

// Construction site: writes here are the sanctioned ones.
func Mk(v string) *Term {
	t := &Term{}
	t.Var = v
	return t
}
`,
		"internal/kernel/other.go": `package kernel

func Poke(t *Term) { t.Var = "x" }
`,
		"internal/tactic/t.go": `package tactic

import "example.com/fix/internal/kernel"

func Evil(t *kernel.Term) { t.Var = "y" }

func Smash(p *kernel.Term) { *p = kernel.Term{} }
`,
		"internal/tactic/t_test.go": `package tactic

import "example.com/fix/internal/kernel"

func poke(ts []*kernel.Term) { ts[0].Args[0] = nil }
`,
	}))
	// Smash's line has two: the pointee overwrite and its raw literal.
	wantFindings(t, got,
		"internal/kernel/other.go:3: kernelmutate: Term.Var written outside intern.go",
		"internal/tactic/t.go:5: kernelmutate: Term.Var written outside intern.go",
		"internal/tactic/t.go:7: kernelmutate: *Term pointee overwritten outside intern.go",
		"internal/tactic/t.go:7: kernelmutate: raw Term composite literal",
		"internal/tactic/t_test.go:5: kernelmutate: Term.Args written outside intern.go",
	)
}

func TestInternKernelFiresOutsideKernel(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/tactic/bad.go": `package tactic

import "example.com/fix/internal/kernel"

func bad() *kernel.Form {
	t := &kernel.Term{Var: "x"}
	f := kernel.Form{Kind: kernel.FTrue}
	_ = kernel.MatchExpr{Scrut: t}
	_ = []*kernel.Type{nil}        // slice literal of node pointers: fine
	_ = [2]*kernel.Term{t, t}      // array literal: fine
	_ = kernel.MatchCase{RHS: t}   // not a hash-consed node
	_ = kernel.TypedVar{Name: "x"} // not a hash-consed node
	_ = []*kernel.Term{{Var: "y"}} // the element's type is elided, not its node
	return &f
}
`,
	}))
	wantFindings(t, got,
		"kernelmutate: raw Term composite literal bypasses the hash-consing arena",
		"kernelmutate: raw Form composite literal bypasses the hash-consing arena",
		"kernelmutate: raw MatchExpr composite literal bypasses the hash-consing arena",
		"bad.go:13: kernelmutate: raw Term composite literal bypasses the hash-consing arena",
	)
}

func TestInternKernelRespectsImportRename(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/model/bad.go": `package model

import k "example.com/fix/internal/kernel"

func bad() *k.Type {
	return &k.Type{Name: "nat"}
}
`,
	}))
	wantFindings(t, got,
		"kernelmutate: raw Type composite literal bypasses the hash-consing arena")
}

func TestInternKernelInsideKernel(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/kernel/form.go": `package kernel

func True() *Form { return finishForm(&Form{Kind: FTrue}) }

func bad() *Term {
	t := &Term{Var: "x"} // minted outside intern.go without a builder
	return t
}
`,
	}))
	wantFindings(t, got,
		"form.go:6: kernelmutate: raw Term composite literal bypasses the hash-consing arena")
}

func TestInternKernelSkipsOnlyInternGo(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/kernel/intern.go": `package kernel

func raw() *Term { return &Term{Var: "x"} }
`,
		"internal/kernel/term_test.go": `package kernel

func rawInTest() *Term { return &Term{Var: "x"} }
`,
	}))
	wantFindings(t, got,
		"term_test.go:3: kernelmutate: raw Term composite literal bypasses the hash-consing arena")
}

func TestInternKernelIgnoresUnrelatedPackages(t *testing.T) {
	got := runFixture(t, analyzerKernelMutate, kernelFixture(map[string]string{
		"internal/fs/disk/bad.go": `package disk

type Term struct{ Var string }

func ok() *Term { return &Term{Var: "x"} } // not the kernel's Term

func poke(t *Term) { t.Var = "y" }
`,
	}))
	wantFindings(t, got)
}
