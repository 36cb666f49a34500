package corpus

import (
	"reflect"
	"slices"
	"strings"
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

// Load rejects a development that does not resolve, prove or keep one
// namespace, naming what is wrong. A global name declared twice is
// rejected whatever the two declarations' kinds, naming both.
func TestLoadRejects(t *testing.T) {
	const nat = `Inductive nat : Type :=
| O : nat
| S : nat -> nat.
`
	one := func(src string) []SourceFile { return []SourceFile{{Name: "A", Src: nat + src}} }
	for _, tc := range []struct {
		name  string
		files []SourceFile
		want  string
	}{
		{"duplicate file", []SourceFile{{Name: "A", Src: nat}, {Name: "A"}}, `corpus: duplicate file "A"`},
		{"parse error", one("Lemma l : O = . Proof. reflexivity. Qed."), "corpus: file A: "},
		{"import of a later file", []SourceFile{{Name: "A", Src: "Require Import B."}, {Name: "B", Src: nat}},
			`corpus: file A: import of unknown or later module "B"`},
		{"unknown function", one("Definition f (n : nat) : nat := g n."),
			`corpus: file A: function f: unknown function or constructor "g"`},
		{"unbound identifier", one("Lemma l : n = n.\nProof. reflexivity. Qed."),
			"corpus: file A: lemma l: unbound identifiers [n]"},
		{"proof fails", one("Lemma l : O = S O.\nProof. reflexivity. Qed."),
			"corpus: file A: lemma l: human proof fails: "},
		{"unparsable proof", one("Lemma l : O = O.\nProof. try (((. Qed."),
			"corpus: file A: lemma l: human proof fails: "},
		{"unknown hint", one("Hint Resolve nope."), `corpus: file A: Hint Resolve: unknown lemma "nope"`},

		// The two rules named mk made `apply mk.` pick a predicate in map
		// order, so a proof using it checked in some loads only.
		{"rule and rule", one(`Inductive p : nat -> Prop :=
| mk : forall (n : nat), p n.
Inductive q : nat -> Prop :=
| mk : forall (n : nat), q n.`),
			"corpus: file A: rule mk at A.v:6 redeclares rule mk at A.v:4"},
		{"function and lemma", one(`Definition id (n : nat) : nat := n.
Lemma id : O = O.
Proof. reflexivity. Qed.`),
			"corpus: file A: lemma id at A.v:5 redeclares function id at A.v:4"},
		{"constructor and function, across files", []SourceFile{
			{Name: "A", Src: nat},
			{Name: "B", Src: "Require Import A.\nDefinition S (n : nat) : nat := n."}},
			"corpus: file B: function S at B.v:2 redeclares constructor S at A.v:1"},
		{"datatype and predicate", one(`Inductive even : nat -> Prop :=
| even_O : even O.
Inductive even : Type :=
| ev : even.`),
			"corpus: file A: datatype even at A.v:6 redeclares predicate even at A.v:4"},
		{"rule and constructor", one(`Inductive p : nat -> Prop :=
| O : p O.`),
			"corpus: file A: rule O at A.v:4 redeclares constructor O at A.v:1"},
		{"lemma and definition", one(`Lemma zero : O = O.
Proof. reflexivity. Qed.
Definition zero (n : nat) : Prop := n = O.`),
			"corpus: file A: definition zero at A.v:6 redeclares lemma zero at A.v:4"},
	} {
		_, err := Load(tc.files)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one starting %q", tc.name, err, tc.want)
		}
	}
}

// EnvBefore(name) is c.Env cut just before name was declared, for every
// lemma: its lemmas are exactly those declared before name; its hints are
// c.Env's in order, minus those naming name or a later lemma, so hints
// naming rules all stay; and its datatype, constructor, function,
// predicate and definition maps are c.Env's own.
func TestEnvBeforeRule(t *testing.T) {
	c, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	full := c.Env
	pos := map[string]int{}
	for i, n := range full.LemmaOrder {
		pos[n] = i
	}
	same := func(a, b any) bool { return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer() }
	ruleHints := 0
	for i, name := range full.LemmaOrder {
		env := c.EnvBefore(name)
		if !slices.Equal(env.LemmaOrder, full.LemmaOrder[:i]) || len(env.Lemmas) != i {
			t.Fatalf("%s: %d lemmas in LemmaOrder, %d in Lemmas; want the %d declared before it", name, len(env.LemmaOrder), len(env.Lemmas), i)
		}
		for _, n := range full.LemmaOrder[:i] {
			if env.Lemmas[n] != full.Lemmas[n] {
				t.Fatalf("%s: lemma %s is not c.Env's", name, n)
			}
		}
		var hints []string
		ruleHints = 0
		for _, h := range full.HintOrder {
			j, isLemma := pos[h]
			if !isLemma {
				ruleHints++
			}
			if !isLemma || j < i {
				hints = append(hints, h)
			}
		}
		if !slices.Equal(env.HintOrder, hints) || len(env.Hints) != len(hints) {
			t.Fatalf("%s: hints %v (%d in Hints), want %v", name, env.HintOrder, len(env.Hints), hints)
		}
		for _, h := range hints {
			if !env.Hints[h] {
				t.Fatalf("%s: hint %s in HintOrder, not in Hints", name, h)
			}
		}
		if !same(env.Datatypes, full.Datatypes) || !same(env.ConstrData, full.ConstrData) ||
			!same(env.Funs, full.Funs) || !same(env.Preds, full.Preds) || !same(env.Defs, full.Defs) {
			t.Fatalf("%s: a datatype, constructor, function, predicate or definition map is not c.Env's", name)
		}
		if c.EnvBefore(name) != env {
			t.Fatalf("%s: a second call built another environment", name)
		}
	}
	if ruleHints == 0 {
		t.Fatal("the corpus hints no rule; the test would not see rule hints kept")
	}
	if env := c.EnvBefore("no_such_lemma"); env != nil {
		t.Fatal("EnvBefore of a name that is no lemma returned an environment")
	}
}
