package corpus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestEmbeddedCorpusLintClean requires the embedded development to have no
// finding: no alpha-equivalent duplicate statements, no named-but-unused
// intros hypotheses, no no-progress combinators, and an import closure that
// covers every cross-file reference. TestLintFiresOnCorpus shows the same
// checks firing on this corpus.
func TestEmbeddedCorpusLintClean(t *testing.T) {
	c, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Lint() {
		t.Errorf("corpus lint: %s", f)
	}
}

// The embedded corpus with two imports dropped from Log.v and five lemmas
// appended to Dir.v loads, and Lint reports exactly the violations planted:
// the two names Log.v uses from the files it no longer imports, one
// duplicate statement, one unused hypothesis and two no-progress
// combinators. The fifth lemma plants none: its hypothesis Hd is never
// named, but bare discriminate uses it.
func TestLintFiresOnCorpus(t *testing.T) {
	files, err := Sources()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		switch f.Name {
		case "Log":
			for _, imp := range []string{"Require Import NatArith.\n", "Require Import ListUtils.\n"} {
				if !strings.Contains(f.Src, imp) {
					t.Fatalf("Log.v has no line %q", imp)
				}
				f.Src = strings.Replace(f.Src, imp, "", 1)
			}
		case "Dir":
			f.Src += `
Lemma lint_refl_a : forall (n : nat), n = n.
Proof. intros. reflexivity. Qed.

Lemma lint_refl_b : forall (m : nat), m = m.
Proof. intros. reflexivity. Qed.

Lemma lint_unused_hyp : forall (n : nat), n = 0 -> n = n.
Proof. intros n Hz. reflexivity. Qed.

Lemma lint_no_progress : 1 + 1 = 2.
Proof. try (frobnicate). repeat (try simpl). reflexivity. Qed.

Lemma lint_discriminate : forall (n : nat), S n = O -> n = n.
Proof. intros n Hd. discriminate. Qed.
`
		}
		files[i] = f
	}
	c, err := Load(files)
	if err != nil {
		t.Fatal(err)
	}
	// Each finding is at the line of the declaration it names.
	at := func(file, decl string) Finding {
		for _, it := range c.Items[file] {
			if it.Name == decl {
				return Finding{File: file, Line: it.Line}
			}
		}
		t.Fatalf("%s declares no %s", file, decl)
		return Finding{}
	}
	var want []Finding
	for _, w := range []struct{ file, decl, check, msg string }{
		{"Dir", "lint_refl_b", "dupstmt", "statement of lint_refl_b is alpha-equivalent to lint_refl_a (Dir.v:%d); reuse it instead"},
		{"Dir", "lint_unused_hyp", "introshyps", "hypothesis Hz introduced by intros in lint_unused_hyp is never referenced; drop the name (use plain intros) or the hypothesis"},
		{"Dir", "lint_no_progress", "noprogress", "repeat (try ...) never fails, so it relies solely on the progress check; drop the try (in proof of lint_no_progress)"},
		{"Dir", "lint_no_progress", "noprogress", "unknown tactic frobnicate inside try can never apply; the combinator hides the failure (in proof of lint_no_progress)"},
		{"Log", "replay", "importclosure", "updN (used by replay) is defined in module ListUtils, which is not in this file's Require Import closure; add `Require Import ListUtils.`"},
		{"Log", "ndata_log_padded_log", "importclosure", "plus_n_O (used by ndata_log_padded_log) is defined in module NatArith, which is not in this file's Require Import closure; add `Require Import NatArith.`"},
	} {
		f := at(w.file, w.decl)
		f.Check, f.Message = w.check, w.msg
		if w.check == "dupstmt" {
			f.Message = fmt.Sprintf(w.msg, at("Dir", "lint_refl_a").Line)
		}
		want = append(want, f)
	}
	if got := c.Lint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Lint reported\n%s\nwant\n%s", lines(got), lines(want))
	}
}

func lines(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
