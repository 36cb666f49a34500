package analysis

import (
	"testing"
)

const preludeFixture = `Inductive nat : Type :=
| O : nat
| S : nat -> nat.
`

func mustDev(t *testing.T, files ...VFile) *Development {
	t.Helper()
	dev, err := ParseDevelopment(files)
	if err != nil {
		t.Fatalf("ParseDevelopment: %v", err)
	}
	return dev
}

func runCorpusOne(t *testing.T, a *Analyzer, dev *Development) []Finding {
	t.Helper()
	return RunCorpus([]*Analyzer{a}, dev)
}

// --- dupstmt ---------------------------------------------------------------

func TestDupStmtFires(t *testing.T) {
	src := preludeFixture + `
Lemma refl_n : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma refl_m : forall (m : nat), m = m.
Proof. intros. reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerDupStmt, dev)
	wantFindings(t, got, "dupstmt: statement of refl_m is alpha-equivalent to refl_n")
}

func TestDupStmtClean(t *testing.T) {
	src := preludeFixture + `
Lemma refl_n : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma succ_n : forall (n : nat), S n = S n.
Proof. intros. reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerDupStmt, dev)
	wantFindings(t, got)
}

// --- introshyps ------------------------------------------------------------

func TestIntrosHypsFires(t *testing.T) {
	src := preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = n.
Proof. intros n H. reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerIntrosHyps, dev)
	wantFindings(t, got, "introshyps: hypothesis H introduced by intros in l is never referenced")
}

func TestIntrosHypsUsedClean(t *testing.T) {
	src := preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = O.
Proof. intros n H. apply H. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerIntrosHyps, dev)
	wantFindings(t, got)
}

func TestIntrosHypsSweeperClean(t *testing.T) {
	// auto consults the whole context: H may be used even if never named.
	src := preludeFixture + `
Lemma l : forall (n : nat), n = O -> n = n.
Proof. intros n H. auto. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerIntrosHyps, dev)
	wantFindings(t, got)
}

// --- noprogress ------------------------------------------------------------

func TestNoProgressTryRepeatFires(t *testing.T) {
	src := preludeFixture + `
Lemma l : O = O.
Proof. try (repeat simpl). reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerNoProgress, dev)
	wantFindings(t, got, "noprogress: try (repeat ...) is redundant")
}

func TestNoProgressUnknownTacticFires(t *testing.T) {
	src := preludeFixture + `
Lemma l : O = O.
Proof. try (frobnicate). reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerNoProgress, dev)
	wantFindings(t, got, "noprogress: unknown tactic frobnicate inside try can never apply")
}

func TestNoProgressUnresolvableNameFires(t *testing.T) {
	src := preludeFixture + `
Lemma l : O = O.
Proof. repeat (apply bogus_lemma). reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerNoProgress, dev)
	wantFindings(t, got, "noprogress: apply bogus_lemma inside repeat references a name")
}

func TestNoProgressRepeatTryFires(t *testing.T) {
	src := preludeFixture + `
Lemma l : O = O.
Proof. repeat (try simpl). reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerNoProgress, dev)
	wantFindings(t, got, "noprogress: repeat (try ...) never fails")
}

func TestNoProgressClean(t *testing.T) {
	src := preludeFixture + `
Lemma helper : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma l : O = O.
Proof. repeat (apply helper). reflexivity. Qed.

Lemma l2 : forall (n : nat), n = n.
Proof. intros m. repeat (destruct m). reflexivity. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	got := runCorpusOne(t, analyzerNoProgress, dev)
	wantFindings(t, got)
}

// --- importclosure ---------------------------------------------------------

func TestImportClosureFires(t *testing.T) {
	dev := mustDev(t,
		VFile{Name: "A.v", Module: "A", Src: preludeFixture},
		VFile{Name: "B.v", Module: "B", Src: `Lemma l : O = O.
Proof. reflexivity. Qed.
`},
	)
	got := runCorpusOne(t, analyzerImportClosure, dev)
	wantFindings(t, got, "importclosure: O (used by l) is defined in module A")
}

func TestImportClosureTransitiveClean(t *testing.T) {
	// C imports only B, which imports A; A's symbols are in C's closure.
	dev := mustDev(t,
		VFile{Name: "A.v", Module: "A", Src: preludeFixture},
		VFile{Name: "B.v", Module: "B", Src: `Require Import A.
Lemma b : O = O.
Proof. reflexivity. Qed.
`},
		VFile{Name: "C.v", Module: "C", Src: `Require Import B.
Lemma c : S O = S O.
Proof. apply b. Qed.
`},
	)
	got := runCorpusOne(t, analyzerImportClosure, dev)
	wantFindings(t, got)
}

// A lemma whose proof text does not parse as a tactic script must surface
// ScriptErr (and be skipped by script-level analyzers), never panic.
func TestUnparsableScriptRecorded(t *testing.T) {
	src := preludeFixture + `
Lemma l : O = O.
Proof. try (((. Qed.
`
	dev := mustDev(t, VFile{Name: "A.v", Module: "A", Src: src})
	if len(dev.Lemmas) != 1 || dev.Lemmas[0].Name != "l" {
		t.Fatalf("lemmas %v, want [l]", dev.Lemmas)
	}
	if lem := dev.Lemmas[0]; lem.ScriptErr == nil {
		t.Fatal("want a script parse error")
	}
	for _, a := range []*Analyzer{analyzerIntrosHyps, analyzerNoProgress} {
		wantFindings(t, runCorpusOne(t, a, dev))
	}
}
