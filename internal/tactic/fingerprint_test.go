package tactic

import (
	"testing"

	"llmfscq/internal/kernel"
)

// TestFingerprintJoinCollision is the regression test for an old goal
// fingerprint join: hypothesis fingerprints were joined with "|" and the
// conclusion appended after "⊢", with no framing, so a single hypothesis
// whose fingerprint contained the separator collided with a pair of
// hypotheses. The two goals below are distinct states — a search must not
// prune one as a duplicate of the other — yet their hypothesis fingerprints
// concatenated identically under the old scheme.
func TestFingerprintJoinCollision(t *testing.T) {
	pair := &Goal{
		Hyps:  []Hyp{{Name: "H", Form: kernel.Pred("a")}, {Name: "H0", Form: kernel.Pred("b")}},
		Concl: kernel.True(),
	}
	single := &Goal{
		// One predicate whose name smuggles the old separator: its
		// fingerprint "(P a)|(P b)" equalled the pair's joined fingerprints.
		Hyps:  []Hyp{{Name: "H", Form: kernel.Pred("a)|(P b")}},
		Concl: kernel.True(),
	}
	if pair.FingerprintKey() == single.FingerprintKey() {
		t.Fatalf("distinct goals share a fingerprint key")
	}
	sPair := &State{Goals: []*Goal{pair}}
	sSingle := &State{Goals: []*Goal{single}}
	if sPair.FingerprintKey() == sSingle.FingerprintKey() {
		t.Fatalf("distinct states share a fingerprint key")
	}
}

// TestGoalKeysConsistent pins what the fingerprint key forgets: goals that
// differ only in hypothesis and variable names share it.
func TestGoalKeysConsistent(t *testing.T) {
	mk := func(hypName, varName string) *Goal {
		return &Goal{
			Vars:  []kernel.TypedVar{{Name: varName, Type: kernel.Ty("nat")}},
			Hyps:  []Hyp{{Name: hypName, Form: kernel.Pred("le", kernel.V(varName), kernel.A("O"))}},
			Concl: kernel.Eq(kernel.V(varName), kernel.A("O")),
		}
	}
	a, b := mk("H", "n"), mk("H7", "m")
	if a.FingerprintKey() != b.FingerprintKey() {
		t.Fatalf("alpha-variant goals should share the fingerprint key")
	}
}
