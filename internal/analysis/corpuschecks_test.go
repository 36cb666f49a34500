package analysis_test

import (
	"strings"
	"testing"

	"llmfscq/internal/corpus"
)

// The corpus checks are not analyzers: they run over a loaded development,
// as (*corpus.Corpus).Lint. Their fixture tests stay beside the analyzers'
// so that every lint fixture is in one package. Each fixture is a
// development that loads, every proof checked.

const preludeFixture = `Inductive nat : Type :=
| O : nat
| S : nat -> nat.
`

// lint loads files, given as module name and source in load order, and
// requires Lint's findings to contain the substrings, one each, in order.
func lint(t *testing.T, files []string, wantSubstrings ...string) {
	t.Helper()
	var srcs []corpus.SourceFile
	for i := 0; i < len(files); i += 2 {
		srcs = append(srcs, corpus.SourceFile{Name: files[i], Src: files[i+1]})
	}
	c, err := corpus.Load(srcs)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Lint()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(wantSubstrings), got)
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(got[i].String(), want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], want)
		}
	}
}

// --- dupstmt ---------------------------------------------------------------

func TestDupStmtFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma refl_n : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma refl_m : forall (m : nat), m = m.
Proof. intros. reflexivity. Qed.
`}, "A.v:8: dupstmt: statement of refl_m is alpha-equivalent to refl_n (A.v:5)")
}

func TestDupStmtClean(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma refl_n : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma succ_n : forall (n : nat), S n = S n.
Proof. intros. reflexivity. Qed.
`})
}

// --- introshyps ------------------------------------------------------------

func TestIntrosHypsFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = n.
Proof. intros n H. reflexivity. Qed.
`}, "A.v:5: introshyps: hypothesis H introduced by intros in l is never referenced")
}

func TestIntrosHypsUsedClean(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = O.
Proof. intros n H. apply H. Qed.
`})
}

func TestIntrosHypsSweeperClean(t *testing.T) {
	// auto consults the whole context: H may be used even if never named.
	lint(t, []string{"A", preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = n.
Proof. intros n H. auto. Qed.
`})
}

// --- noprogress ------------------------------------------------------------

func TestNoProgressTryRepeatFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : O = O.
Proof. try (repeat simpl). reflexivity. Qed.
`}, "noprogress: try (repeat ...) is redundant")
}

func TestNoProgressUnknownTacticFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : O = O.
Proof. try (frobnicate). reflexivity. Qed.
`}, "noprogress: unknown tactic frobnicate inside try can never apply")
}

func TestNoProgressUnresolvableNameFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : O = O.
Proof. repeat (apply bogus_lemma). reflexivity. Qed.
`}, "noprogress: apply bogus_lemma inside repeat references a name")
}

func TestNoProgressRepeatTryFires(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma l : O = O.
Proof. repeat (try simpl). reflexivity. Qed.
`}, "noprogress: repeat (try ...) never fails")
}

func TestNoProgressClean(t *testing.T) {
	lint(t, []string{"A", preludeFixture + `
Lemma helper : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma l : O = O.
Proof. repeat (apply helper). Qed.

Lemma l2 : forall (n : nat), S n = S n.
Proof. intros m. repeat (destruct m); reflexivity. Qed.
`})
}

// --- importclosure ---------------------------------------------------------

func TestImportClosureFires(t *testing.T) {
	lint(t, []string{
		"A", preludeFixture,
		"B", `Lemma l : O = O.
Proof. reflexivity. Qed.
`,
	}, "B.v:1: importclosure: O (used by l) is defined in module A")
}

func TestImportClosureTransitiveClean(t *testing.T) {
	// C imports only B, which imports A; A's names are in C's closure.
	lint(t, []string{
		"A", preludeFixture,
		"B", `Require Import A.
Lemma b : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.
`,
		"C", `Require Import B.
Lemma c : S O = S O.
Proof. apply b. Qed.
`,
	})
}
