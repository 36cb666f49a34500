package syntax

import "testing"

// The parsers must return errors, never panic, on arbitrary input. The
// seed corpus runs on every `go test`; `go test -fuzz=Fuzz...` explores.

func FuzzLex(f *testing.F) {
	for _, seed := range []string{
		"", "(", ")", "(* unterminated", "Lemma x : 0 = 0. Proof. Qed.",
		"forall (x : nat), x = x", "match x with | O => 1 end",
		"a ++ b :: c + d * e", "~~~True", "\x00\xff", "0x", "(((((",
		"(* nested (* comment *) *)", "x = 99999999", "Lemma l : True # False.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TEOF {
			t.Fatal("lexer must end with EOF token")
		}
	})
}

func FuzzParseForm(f *testing.F) {
	for _, seed := range []string{
		"forall (n : nat), n + 0 = n",
		"exists (x : nat), x < 3 /\\ True",
		"a = b -> (c = d \\/ ~ e = f)",
		"In x (x :: l)", "()", "forall , x", "1 + = 2",
		"x = 4097", "match x with end", "exists (x : ), x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := NewParserString(src)
		if err != nil {
			return
		}
		form, err := p.ParseForm()
		if err != nil {
			return
		}
		// A successfully parsed formula must print and fingerprint without
		// panicking.
		_ = form.String()
		_ = form.FingerprintKey()
	})
}

func FuzzParseVernacular(f *testing.F) {
	for _, seed := range []string{
		"Inductive b : Type := | T : b.",
		"Fixpoint f (n : nat) : nat := n.",
		"Lemma l : True. Proof. constructor. Qed.",
		"Require Import X.",
		"Hint Resolve a b.",
		"Lemma broken", "Inductive : :=", "Proof. Qed.",
		"Lemma no_qed : 0 = 0. Proof. reflexivity.",
		"Inductive empty : Type :=.",
		"Inductive w : nat := | c : w.",
		"Hint Resolve.", "Require Export X.", "Axiom choice : True.",
		"Lemma l : True.\nconstructor. Qed.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		vp, err := NewVernParser(src)
		if err != nil {
			return
		}
		_, _ = vp.ParseFileSpans()
	})
}
