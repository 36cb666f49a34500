package analysis

import "testing"

func TestInternKernelFiresOutsideKernel(t *testing.T) {
	src := `package tactic

import "llmfscq/internal/kernel"

func bad() *kernel.Form {
	t := &kernel.Term{Var: "x"}
	f := kernel.Form{Kind: kernel.FTrue}
	_ = kernel.MatchExpr{Scrut: t}
	_ = []*kernel.Type{nil}        // slice literal of node pointers: fine
	_ = [2]*kernel.Term{t, t}      // array literal: fine
	_ = kernel.MatchCase{RHS: t}   // not a hash-consed node
	_ = kernel.TypedVar{Name: "x"} // not a hash-consed node
	return &f
}
`
	got := runOne(t, analyzerInternKernel, mustPkg(t, "internal/tactic", "bad.go", src))
	wantFindings(t, got,
		"internkernel: raw Term composite literal bypasses the hash-consing arena",
		"internkernel: raw Form composite literal bypasses the hash-consing arena",
		"internkernel: raw MatchExpr composite literal bypasses the hash-consing arena",
	)
}

func TestInternKernelRespectsImportRename(t *testing.T) {
	src := `package model

import k "llmfscq/internal/kernel"

func bad() *k.Type {
	return &k.Type{Name: "nat"}
}
`
	got := runOne(t, analyzerInternKernel, mustPkg(t, "internal/model", "bad.go", src))
	wantFindings(t, got,
		"internkernel: raw Type composite literal bypasses the hash-consing arena")
}

func TestInternKernelInsideKernel(t *testing.T) {
	src := `package kernel

func True() *Form { return finishForm(&Form{Kind: FTrue}) }

func bad() *Term {
	t := &Term{Var: "x"} // minted outside intern.go without a builder
	return t
}
`
	got := runOne(t, analyzerInternKernel, mustPkg(t, "internal/kernel", "form.go", src))
	wantFindings(t, got,
		"internkernel: raw Term composite literal bypasses the hash-consing arena")
}

func TestInternKernelSkipsOnlyInternGo(t *testing.T) {
	fixture := `package kernel

func raw() *Term { return &Term{Var: "x"} }
`
	pkg := mustPkg(t, "internal/kernel", "intern.go", fixture)
	if err := pkg.AddFile("internal/kernel/term_test.go", fixture); err != nil {
		t.Fatal(err)
	}
	wantFindings(t, runOne(t, analyzerInternKernel, pkg),
		"internkernel: raw Term composite literal bypasses the hash-consing arena")
}

func TestInternKernelIgnoresUnrelatedPackages(t *testing.T) {
	src := `package disk

type Term struct{ Var string }

func ok() *Term { return &Term{Var: "x"} } // not the kernel's Term
`
	got := runOne(t, analyzerInternKernel, mustPkg(t, "internal/fs/disk", "bad.go", src))
	wantFindings(t, got)
}
