//go:build !race

package tactic

import (
	"testing"

	"llmfscq/internal/kernel"
)

// TestAllocLiaWarm pins omega's steady state at zero allocations: a warm
// call linearizes into its pooled linearizer, and a rejection is a shared
// error. The goal has minus and mult atoms, and its conclusion is a
// conjunction, so two negated alternatives are refuted.
func TestAllocLiaWarm(t *testing.T) {
	x, y, z := kernel.V("x"), kernel.V("y"), kernel.V("z")
	g := &Goal{
		Hyps: []Hyp{
			{Name: "H", Form: kernel.Pred("le", kernel.A("minus", x, y), z)},
			{Name: "H0", Form: kernel.Pred("lt", z, kernel.A("plus", kernel.A("mult", x, y), kernel.NatLit(3)))},
			{Name: "H1", Form: kernel.Eq(kernel.A("mult", kernel.NatLit(2), z), kernel.A("plus", x, y))},
		},
		Concl: kernel.And(
			kernel.Pred("le", kernel.A("minus", x, y), kernel.A("S", z)),
			kernel.Not(kernel.Eq(kernel.A("plus", kernel.A("mult", x, y), kernel.NatLit(3)), z)),
		),
	}
	if _, err := tacLia(nil, g); err != nil {
		t.Fatalf("omega does not prove the goal: %v", err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := tacLia(nil, g); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("a warm omega allocated %.2f/op, want 0", avg)
	}
}
