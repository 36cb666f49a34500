package corpus

import (
	"testing"

	"llmfscq/internal/tactic"
)

// TestLoadCorpus loads the embedded corpus and validates basic structural
// properties.
func TestLoadCorpus(t *testing.T) {
	files, err := Sources()
	if err != nil {
		t.Fatalf("Sources: %v", err)
	}
	c, err := Load(files)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(c.Theorems) == 0 {
		t.Fatal("corpus has no theorems")
	}
	seen := map[string]bool{}
	for _, th := range c.Theorems {
		if th.Name == "" || th.Proof == "" {
			t.Errorf("theorem %q has empty name or proof", th.Name)
		}
		if seen[th.Name] {
			t.Errorf("duplicate theorem name %q", th.Name)
		}
		seen[th.Name] = true
	}
}

// TestAllHumanProofsCheck machine-checks every human proof in the corpus.
// This is the central integrity property: the corpus is a real verified
// development, so a kernel or tactic regression fails this test. Load
// checks each proof where it is declared; this re-checks each in the full
// environment.
func TestAllHumanProofsCheck(t *testing.T) {
	files, err := Sources()
	if err != nil {
		t.Fatalf("Sources: %v", err)
	}
	c, err := Load(files)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	failures := 0
	for _, th := range c.Theorems {
		if err := tactic.CheckProof(c.Env, th.Stmt, th.Proof); err != nil {
			failures++
			t.Errorf("%s.%s: %v", th.File, th.Name, err)
			if failures >= 15 {
				t.Fatalf("too many failures, stopping")
			}
		}
	}
	t.Logf("checked %d human proofs", len(c.Theorems))
}

// TestCategories ensures every file in the manifest maps to a paper
// category and theorems inherit it.
func TestCategories(t *testing.T) {
	c, err := Default()
	if err != nil {
		t.Fatalf("Default: %v", err)
	}
	for _, th := range c.Theorems {
		switch th.Category {
		case Utilities, CHL, FileSystem:
		default:
			t.Errorf("theorem %s has unknown category %q", th.Name, th.Category)
		}
	}
}
