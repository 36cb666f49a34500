package syntax

import (
	"strings"
	"testing"

	"llmfscq/internal/kernel"
)

func parseTerm(t *testing.T, src string) *kernel.Term {
	t.Helper()
	p, err := NewParserString(src)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := p.ParseTerm()
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	return tm
}

func parseForm(t *testing.T, src string) *kernel.Form {
	t.Helper()
	p, err := NewParserString(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.ParseForm()
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	return f
}

func TestTermPrecedence(t *testing.T) {
	// * binds tighter than +, which binds tighter than ::/++.
	tm := parseTerm(t, "a + b * c :: l ++ r")
	if tm.Fun != "cons" {
		t.Fatalf("top is %s", tm.Fun)
	}
	if tm.Args[0].Fun != "plus" || tm.Args[0].Args[1].Fun != "mult" {
		t.Fatalf("left: %s", tm.Args[0])
	}
	if tm.Args[1].Fun != "app" {
		t.Fatalf("right: %s", tm.Args[1])
	}
}

func TestNumberLiterals(t *testing.T) {
	tm := parseTerm(t, "3")
	if n, ok := tm.AsNat(); !ok || n != 3 {
		t.Fatalf("3 parsed as %s", tm)
	}
}

func TestApplication(t *testing.T) {
	tm := parseTerm(t, "selN (updN l n v) n def")
	if tm.Fun != "selN" || len(tm.Args) != 3 {
		t.Fatalf("got %s", tm)
	}
	if tm.Args[0].Fun != "updN" {
		t.Fatalf("inner: %s", tm.Args[0])
	}
}

func TestMatchTerm(t *testing.T) {
	tm := parseTerm(t, "match n with | O => m | S p => S (plus p m) end")
	if tm.Match == nil || len(tm.Match.Cases) != 2 {
		t.Fatalf("got %s", tm)
	}
}

func TestFormConnectivePrecedence(t *testing.T) {
	f := parseForm(t, "a = b /\\ c = d \\/ e = f -> g = h")
	if f.Kind != kernel.FImpl {
		t.Fatalf("top: %v", f.Kind)
	}
	if f.L.Kind != kernel.FOr || f.L.L.Kind != kernel.FAnd {
		t.Fatalf("left: %s", f.L)
	}
}

func TestFormQuantifiers(t *testing.T) {
	f := parseForm(t, "forall (A : Type) (x : A) (l : list A), In x l -> In x (x :: l)")
	binders, matrix := f.StripForalls()
	if len(binders) != 3 || !binders[0].Type.IsType() {
		t.Fatalf("binders: %v", binders)
	}
	if matrix.Kind != kernel.FImpl {
		t.Fatalf("matrix: %s", matrix)
	}
}

func TestFormComparisons(t *testing.T) {
	f := parseForm(t, "n <= m")
	if f.Kind != kernel.FPred || f.Pred != "le" {
		t.Fatalf("got %s", f)
	}
	f = parseForm(t, "n < m")
	if f.Pred != "lt" {
		t.Fatalf("got %s", f)
	}
	f = parseForm(t, "n <> m")
	if f.Kind != kernel.FNot || f.L.Kind != kernel.FEq {
		t.Fatalf("got %s", f)
	}
}

func TestParenthesizedFormula(t *testing.T) {
	f := parseForm(t, "(a = b -> c = d) -> a = b")
	if f.Kind != kernel.FImpl || f.L.Kind != kernel.FImpl {
		t.Fatalf("got %s", f)
	}
}

func TestVernacularFile(t *testing.T) {
	src := `
(* a comment (* nested *) here *)
Inductive nat : Type := | O : nat | S : nat -> nat.
Fixpoint plus (n m : nat) : nat := match n with | O => m | S p => S (plus p m) end.
Inductive le : nat -> nat -> Prop :=
| le_n : forall (n : nat), le n n
| le_S : forall (n m : nat), le n m -> le n (S m).
Definition lt (n m : nat) : Prop := le (S n) m.
Lemma plus_O_n : forall (n : nat), plus O n = n.
Proof. intros. reflexivity. Qed.
Hint Constructors le.
`
	vp, err := NewVernParser(src)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := vp.ParseFileSpans()
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 6 {
		t.Fatalf("got %d decls", len(decls))
	}
	if _, ok := decls[0].Decl.(DDatatype); !ok {
		t.Fatalf("decl 0: %T", decls[0].Decl)
	}
	fun, ok := decls[1].Decl.(DFun)
	if !ok || !fun.Recursive || len(fun.Params) != 2 {
		t.Fatalf("decl 1: %+v", decls[1].Decl)
	}
	pred, ok := decls[2].Decl.(DIndPred)
	if !ok || len(pred.Rules) != 2 || len(pred.ArgTypes) != 2 {
		t.Fatalf("decl 2: %+v", decls[2].Decl)
	}
	if _, ok := decls[3].Decl.(DPredDef); !ok {
		t.Fatalf("decl 3: %T", decls[3].Decl)
	}
	lem, ok := decls[4].Decl.(DLemma)
	if !ok || lem.Name != "plus_O_n" || !strings.Contains(lem.Proof, "reflexivity") {
		t.Fatalf("decl 4: %+v", decls[4].Decl)
	}
	// Source spans are verbatim.
	if !strings.HasPrefix(decls[4].Src, "Lemma plus_O_n") {
		t.Fatalf("span: %q", decls[4].Src)
	}
}

func TestVernacularErrors(t *testing.T) {
	for _, bad := range []string{
		"Lemma broken : forall , x = x. Proof. Qed.",
		"Inductive t : Type := .",
		"Fixpoint f (x : nat) : nat := match x with end.",
		"Lemma no_qed : 0 = 0. Proof. reflexivity.",
	} {
		vp, err := NewVernParser(bad)
		if err != nil {
			continue
		}
		if _, err := vp.ParseFile(); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestResolveTerm(t *testing.T) {
	env := kernel.NewEnv()
	if err := env.AddDatatype(&kernel.Datatype{Name: "nat", Constructors: []kernel.Constructor{
		{Name: "O"}, {Name: "S", ArgTypes: []*kernel.Type{kernel.Ty("nat")}},
	}}); err != nil {
		t.Fatal(err)
	}
	tm := parseTerm(t, "S x")
	bound := map[string]bool{"x": true}
	out, err := ResolveTerm(env, tm, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(kernel.A("S", kernel.V("x"))) {
		t.Fatalf("got %s", out)
	}
	// Unknown predicate is rejected in formulas.
	f := parseForm(t, "Frob x")
	if _, err := ResolveForm(env, f, bound); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	// ResolveForm reports the first error in walk order: an unknown
	// predicate before a bad argument of its own or to its right, a bad
	// argument before an unknown predicate to its right.
	const (
		unknownPred = `syntax: unknown predicate "Frob"`
		badPattern  = `syntax: pattern head "f" is not a constructor`
	)
	for src, want := range map[string]string{
		"Frob (match x with | f y => y end)":                             unknownPred,
		"Frob x /\\ (match x with | f y => y end) = x":                   unknownPred,
		"~ (Frob x \\/ (match x with | f y => y end) = x)":               unknownPred,
		"(match x with | f y => y end) = x -> Frob x":                    badPattern,
		"x = (match x with | f y => y end) <-> Frob x":                   badPattern,
		"forall (y : nat), Frob y /\\ (match y with | f z => z end) = y": unknownPred,
	} {
		if out, err := ResolveForm(env, parseForm(t, src), bound); err == nil || err.Error() != want || out != nil {
			t.Errorf("%s: got (%v, %v), want error %q", src, out, err, want)
		}
	}
}
