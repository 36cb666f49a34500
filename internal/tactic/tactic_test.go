package tactic

import (
	"strings"
	"testing"

	"llmfscq/internal/kernel"
	"llmfscq/internal/syntax"
)

// buildEnv loads a small development from surface syntax (a miniature of
// the corpus loader, kept local to avoid an import cycle).
func buildEnv(t testing.TB) *kernel.Env {
	t.Helper()
	src := `
Inductive bool : Type := | true : bool | false : bool.
Inductive nat : Type := | O : nat | S : nat -> nat.
Inductive list (A : Type) : Type := | nil : list A | cons : A -> list A -> list A.
Fixpoint plus (n m : nat) : nat := match n with | O => m | S p => S (plus p m) end.
Fixpoint app (A : Type) (l1 l2 : list A) : list A :=
  match l1 with | nil => l2 | cons x t => cons x (app t l2) end.
Fixpoint length (A : Type) (l : list A) : nat :=
  match l with | nil => O | cons x t => S (length t) end.
Inductive le : nat -> nat -> Prop :=
| le_n : forall (n : nat), le n n
| le_S : forall (n m : nat), le n m -> le n (S m).
Inductive In (A : Type) : A -> list A -> Prop :=
| In_head : forall (x : A) (l : list A), In x (cons x l)
| In_tail : forall (x y : A) (l : list A), In x l -> In x (cons y l).
Definition lt (n m : nat) : Prop := le (S n) m.
Inductive twice : nat -> Prop :=
| twice_succ : forall (m : nat), twice (S m)
| twice_refl : forall (m H : nat), le H H -> le O H -> twice H
| twice_zero : forall (m n : nat), le m n -> le n m -> twice O.
Hint Constructors le.
Hint Constructors In.
`
	env := kernel.NewEnv()
	vp, err := syntax.NewVernParser(src)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := vp.ParseFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		switch d := d.(type) {
		case syntax.DDatatype:
			if err := env.AddDatatype(d.Datatype); err != nil {
				t.Fatal(err)
			}
		case syntax.DFun:
			fd := &kernel.FunDef{Name: d.Name, Params: d.Params, RetType: d.RetType, Recursive: d.Recursive}
			if err := env.AddFun(fd); err != nil {
				t.Fatal(err)
			}
			bound := map[string]bool{}
			for _, p := range d.Params {
				bound[p.Name] = true
			}
			body, err := syntax.ResolveTerm(env, d.Body, bound)
			if err != nil {
				t.Fatal(err)
			}
			fd.Body = body
		case syntax.DIndPred:
			p := &kernel.IndPred{Name: d.Name, Arity: len(d.ArgTypes), ArgTypes: d.ArgTypes}
			if err := env.AddPred(p); err != nil {
				t.Fatal(err)
			}
			tvars := map[string]bool{}
			for _, tp := range d.TypeParams {
				tvars[tp] = true
			}
			for _, raw := range d.Rules {
				binders, matrix := raw.Form.StripForalls()
				var vars []kernel.TypedVar
				for _, b := range binders {
					if b.Type.IsType() {
						tvars[b.Name] = true
						continue
					}
					vars = append(vars, b)
				}
				prems, concl := matrix.StripImpls()
				bound := map[string]bool{}
				for _, v := range vars {
					bound[v.Name] = true
				}
				rc, err := syntax.ResolveForm(env, concl, bound)
				if err != nil {
					t.Fatal(err)
				}
				rule := kernel.Rule{Name: raw.Name, PredName: p.Name, Vars: vars, ConclArgs: rc.Args}
				for _, prem := range prems {
					rp, err := syntax.ResolveForm(env, prem, bound)
					if err != nil {
						t.Fatal(err)
					}
					rule.Prems = append(rule.Prems, rp)
				}
				p.Rules = append(p.Rules, rule)
			}
		case syntax.DPredDef:
			bound := map[string]bool{}
			for _, p := range d.Params {
				bound[p.Name] = true
			}
			body, err := syntax.ResolveForm(env, d.Body, bound)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.AddDef(&kernel.PredDef{Name: d.Name, Params: d.Params, Body: body}); err != nil {
				t.Fatal(err)
			}
		case syntax.DHint:
			for _, n := range d.Names {
				if d.Constructors {
					for _, r := range env.Preds[n].Rules {
						env.AddHint(r.Name)
					}
				} else {
					env.AddHint(n)
				}
			}
		}
	}
	return env
}

func stmt(t testing.TB, env *kernel.Env, src string) *kernel.Form {
	t.Helper()
	p, err := syntax.NewParserString(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.ParseForm()
	if err != nil {
		t.Fatal(err)
	}
	f, err := syntax.ResolveForm(env, raw, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// proves asserts the script completes the proof.
func proves(t *testing.T, env *kernel.Env, statement, script string) {
	t.Helper()
	if err := CheckProof(env, stmt(t, env, statement), script); err != nil {
		t.Fatalf("proof of %q failed: %v", statement, err)
	}
}

// failsToProve asserts the script does NOT complete the proof.
func failsToProve(t *testing.T, env *kernel.Env, statement, script string) {
	t.Helper()
	if err := CheckProof(env, stmt(t, env, statement), script); err == nil {
		t.Fatalf("UNSOUND: proved %q with %q", statement, script)
	}
}

func TestBasicTactics(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n : nat), n = n", "intros. reflexivity.")
	proves(t, env, "forall (n : nat), 0 + n = n", "intros. simpl. reflexivity.")
	proves(t, env, "forall (n : nat), 0 + n = n", "intros. reflexivity.")
	proves(t, env, "True", "constructor.")
	proves(t, env, "True /\\ True", "split. constructor. constructor.")
	proves(t, env, "True \\/ False", "left. constructor.")
	proves(t, env, "False \\/ True", "right. constructor.")
	proves(t, env, "forall (n : nat), n = n /\\ True", "intros. split; auto.")
	proves(t, env, "exists (n : nat), n = 2", "exists 2. reflexivity.")
	proves(t, env, "forall (n : nat), n = 1 -> n = 1", "intros. assumption.")
	proves(t, env, "forall (n : nat), n = 1 -> 1 = n", "intros. symmetry. assumption.")
	proves(t, env, "forall (n m : nat), n = m -> S n = S m", "intros. f_equal. assumption.")
	proves(t, env, "forall (n : nat), False -> n = 2", "intros. contradiction.")
	proves(t, env, "forall (n : nat), S n = 0 -> False", "intros. discriminate H.")
	proves(t, env, "0 <> 1", "discriminate.")
}

func TestSoundnessNegative(t *testing.T) {
	env := buildEnv(t)
	falsehood := "0 = 1"
	for _, script := range []string{
		"reflexivity.", "auto.", "eauto.", "congruence.", "omega.",
		"simpl. reflexivity.", "trivial.", "constructor.", "f_equal.",
	} {
		failsToProve(t, env, falsehood, script)
	}
	failsToProve(t, env, "forall (n m : nat), n <= m", "intros. auto.")
	failsToProve(t, env, "forall (n m : nat), n <= m", "intros. omega.")
	failsToProve(t, env, "forall (n m : nat), n = m", "intros. congruence.")
	failsToProve(t, env, "forall (A : Type) (l : list A), length l = 0", "intros. induction l. reflexivity. simpl. auto.")
	// Incomplete proofs are incomplete.
	failsToProve(t, env, "True /\\ True", "split. constructor.")
}

func TestApplyAndEApply(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), n <= m -> n <= S m", "intros. apply le_S. assumption.")
	proves(t, env, "forall (n : nat), n <= n", "intros. apply le_n.")
	// apply with explicit instantiation.
	if err := env.AddLemma(&kernel.Lemma{Name: "le_trans_test", Stmt: stmt(t, env,
		"forall (a b c : nat), a <= b -> b <= c -> a <= c")}); err != nil {
		t.Fatal(err)
	}
	proves(t, env, "forall (n : nat), n <= S n -> S n <= S (S n) -> n <= S (S n)",
		"intros. apply le_trans_test with (S n). assumption. assumption.")
	proves(t, env, "forall (n : nat), n <= S n -> S n <= S (S n) -> n <= S (S n)",
		"intros. eapply le_trans_test. eassumption. assumption.")
	// apply ... in (forward chaining).
	proves(t, env, "forall (n m : nat), (n = m -> n <= m) -> n = m -> n <= m",
		"intros. apply H in H0. assumption.")
}

func TestDestructAndInduction(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n : nat), n + 0 = n",
		"induction n. reflexivity. simpl. rewrite IHn. reflexivity.")
	proves(t, env, "forall (b : bool), b = true \\/ b = false",
		"intros. destruct b. left. reflexivity. right. reflexivity.")
	proves(t, env, "forall (n m : nat), n = m /\\ True -> n = m",
		"intros. destruct H. assumption.")
	proves(t, env, "forall (n m : nat), n = m \\/ m = n -> m = n",
		"intros. destruct H. symmetry. assumption. assumption.")
	proves(t, env, "forall (n : nat), (exists (m : nat), n = S m) -> 1 <= n",
		"intros. destruct H as [m Hm]. subst. omega.")
	// Intro patterns.
	proves(t, env, "forall (n m : nat), n = 1 /\\ m = 2 -> m = 2",
		"intros. destruct H as [H1 H2]. assumption.")
	// Induction refuses when a hypothesis depends on the variable.
	failsToProve(t, env, "forall (n : nat), n = n -> n + 0 = n",
		"intros. induction n. reflexivity. simpl. rewrite IHn. reflexivity.")
}

func TestDestructTermWithEqn(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), plus n m = plus n m",
		"intros. destruct (plus n m) eqn:He. reflexivity. reflexivity.")
}

func TestInversion(t *testing.T) {
	env := buildEnv(t)
	// Impossible case closes the goal.
	proves(t, env, "forall (A : Type) (x : A), In x nil -> False", "intros. inversion H.")
	proves(t, env, "forall (n : nat), S n <= 0 -> False", "intros. inversion H.")
	// Injectivity.
	proves(t, env, "forall (n m : nat), S n = S m -> n = m", "intros. inversion H. assumption.")
	// Rule premises become hypotheses.
	proves(t, env, "forall (A : Type) (x y : A) (l : list A), In x (cons y l) -> x = y \\/ In x l",
		"intros. inversion H. subst. left. reflexivity. right. assumption.")
}

// Inversion freshens every rule against the goal's own names: no rule
// sees the variables or hypothesis names an earlier rule added, whether
// that rule was impossible (twice_succ's m) or survived (twice_refl's m
// and H0), and a rule variable substituted away leaves the scope before
// the rule's hypotheses are named (twice_refl's H). The inverted
// hypothesis is named Ht so that H is free for the rules.
func TestInversionRulesFreshenIndependently(t *testing.T) {
	env := buildEnv(t)
	st := NewState(env, stmt(t, env, "forall (k : nat), twice O -> le k k"))
	for _, sentence := range []string{"intros k Ht.", "inversion Ht."} {
		var err error
		if st, err = ApplySentence(st, sentence); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"k : nat\nm : nat\nHt : twice 0\nH : le 0 0\nH0 : le 0 0\n============================\nle k k",
		"k : nat\nm : nat\nn : nat\nHt : twice 0\nH : le m n\nH0 : le n m\n============================\nle k k",
	}
	if len(st.Goals) != len(want) {
		t.Fatalf("%d goals after inversion, want %d", len(st.Goals), len(want))
	}
	for i, g := range st.Goals {
		if got := strings.TrimSpace(g.String()); got != want[i] {
			t.Errorf("goal %d:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
}

func TestRuleInduction(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), n <= m -> S n <= S m", "intros. induction H; auto.")
	proves(t, env, "forall (n m : nat), n <= m -> n <= S m", "intros. induction H; auto.")
}

func TestRewriteDirections(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), n = m -> n + 0 = m + 0", "intros. rewrite H. reflexivity.")
	proves(t, env, "forall (n m : nat), n = m -> n + 0 = m + 0", "intros. rewrite <- H. reflexivity.")
	proves(t, env, "forall (n m k : nat), n = m -> n = k -> m = k",
		"intros. rewrite H in H0. assumption.")

	// A rewrite whose left-hand side occurs nowhere is rejected, and the
	// rejection's text (what a wire Rejected answer carries) renders it.
	s, err := ApplySentence(NewState(env, stmt(t, env, "forall (n m : nat), n + 0 = m -> m = S m")), "intros.")
	if err != nil {
		t.Fatal(err)
	}
	const want = "tactic: found no subterm matching n + 0"
	if _, err := ApplySentence(s, "rewrite H."); err == nil || err.Error() != want {
		t.Fatalf("rewrite with no matching subterm: err = %v, want %q", err, want)
	}
}

func TestLia(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), n <= m -> m <= n -> n = m", "intros. omega.")
	proves(t, env, "forall (n m : nat), n <= n + m", "intros. omega.")
	proves(t, env, "forall (n : nat), n < S n", "intros. omega.")
	proves(t, env, "forall (n m p : nat), n <= m -> m < p -> n < p", "intros. omega.")
	proves(t, env, "forall (n : nat), S n <= 0 -> False", "intros. omega.")
	proves(t, env, "forall (n m : nat), S n <= S m -> n <= m", "intros. omega.")
	failsToProve(t, env, "forall (n m : nat), n <= m -> m <= n", "intros. omega.")
}

func TestCongruence(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m k : nat), n = m -> m = k -> n = k", "intros. congruence.")
	proves(t, env, "forall (n m : nat), n = m -> S n = S m", "intros. congruence.")
	proves(t, env, "forall (n m : nat), S n = S m -> n = m", "intros. congruence.")
	proves(t, env, "forall (n : nat), 0 = S n -> False", "intros. congruence.")
	proves(t, env, "forall (n m : nat), n = m -> n <> S m -> True", "intros. constructor.")
	failsToProve(t, env, "forall (n m : nat), S n = S m -> n = S m", "intros. congruence.")
}

func TestAutoEauto(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n : nat), n <= S (S n)", "intros. auto.")
	proves(t, env, "forall (A : Type) (x y z : A) (l : list A), In x (cons y (cons z (cons x l)))",
		"intros. auto.")
	proves(t, env, "exists (n : nat), 0 <= n", "eauto.")
	// Depth limits matter: depth 1 cannot chain two rules.
	failsToProve(t, env, "forall (n : nat), n <= S (S n)", "intros. auto 1.")
}

func TestRevertGeneralize(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n m : nat), n + m = m + n -> n + m = m + n",
		"intros. revert H. intros. assumption.")
}

func TestAssertSpecialize(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (n : nat), 0 + n = n",
		"intros. assert (0 + n = n) as HA. reflexivity. assumption.")
}

func TestCombinators(t *testing.T) {
	env := buildEnv(t)
	proves(t, env, "forall (b : bool), b = true \\/ b = false",
		"intros. destruct b; [ left | right ]; reflexivity.")
	proves(t, env, "forall (n : nat), n + 0 = n",
		"induction n; simpl; try rewrite IHn; reflexivity.")
	proves(t, env, "True /\\ (True /\\ True)", "repeat split.")
}

// A sentence whose verb the tactic table lacks is rejected by that verb's
// name, whatever its arguments. Besides frobnicate, the verbs below are Coq
// tactics that no corpus proof uses and the model cannot emit.
func TestUnknownTacticRejected(t *testing.T) {
	env := buildEnv(t)
	s := NewState(env, stmt(t, env, "True"))
	for _, c := range []struct{ sentence, verb string }{
		{"frobnicate.", "frobnicate"},
		{"idtac.", "idtac"},
		{"exact H.", "exact"},
		{"clear H.", "clear"},
		{"generalize dependent n.", "generalize"},
		{"specialize (H n).", "specialize"},
		{"inversion_clear H.", "inversion_clear"},
		{"lia.", "lia"},
	} {
		want := `tactic: unknown tactic "` + c.verb + `"`
		if _, err := ApplySentence(s, c.sentence); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.sentence, err, want)
		}
	}
	if _, err := ApplySentence(s, "apply NoSuchLemma."); err == nil {
		t.Fatal("unknown lemma accepted")
	}
}

func TestFingerprintDetectsLoops(t *testing.T) {
	env := buildEnv(t)
	s := NewState(env, stmt(t, env, "forall (n m : nat), n + m = m + n"))
	s1, err := ApplySentence(s, "intros.")
	if err != nil {
		t.Fatal(err)
	}
	// symmetry twice returns to the same state.
	s2, err := ApplySentence(s1, "symmetry.")
	if err != nil {
		t.Fatal(err)
	}
	s3, err := ApplySentence(s2, "symmetry.")
	if err != nil {
		t.Fatal(err)
	}
	if s1.FingerprintKey() != s3.FingerprintKey() {
		t.Fatal("fingerprint key not stable under involution")
	}
	if s1.FingerprintKey() == s2.FingerprintKey() {
		t.Fatal("fingerprint key conflates distinct states")
	}
}

func TestStatePrinting(t *testing.T) {
	env := buildEnv(t)
	s := NewState(env, stmt(t, env, "forall (n : nat), n <= n -> n = n"))
	s, err := ApplySentence(s, "intros.")
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if !strings.Contains(out, "n : nat") || !strings.Contains(out, "=====") {
		t.Fatalf("goal rendering:\n%s", out)
	}
}

// Fingerprint keys are memoized on goals and states; the memo must never
// leak through Clone (whose result is mutated in place by tactics) and must
// stay equal to a fresh computation after tactic application.
func TestFingerprintMemoization(t *testing.T) {
	env := buildEnv(t)
	goal := stmt(t, env, "forall (n m : nat), plus n m = plus n m")
	st := NewState(env, goal)
	fp1 := st.FingerprintKey()
	if fp1 != st.FingerprintKey() {
		t.Fatal("memoized fingerprint key differs from first computation")
	}
	ns, err := ApplySentence(st, "intros.")
	if err != nil {
		t.Fatal(err)
	}
	if ns.FingerprintKey() == fp1 {
		t.Fatal("distinct states share a fingerprint key")
	}
	// A clone mutated after its parent was fingerprinted must re-derive.
	g := st.Goals[0]
	_ = g.FingerprintKey()
	ng := g.Clone()
	ng.Concl = ns.Goals[0].Concl
	if ng.FingerprintKey() == g.FingerprintKey() {
		t.Fatal("clone inherited a stale memoized fingerprint key")
	}
	// Fresh equal states agree with memoized ones.
	if NewState(env, goal).FingerprintKey() != fp1 {
		t.Fatal("memoized fingerprint key diverged from a fresh computation")
	}
}

// Block instantiation must equal the per-binder walk where binders shadow
// one another: inside a block, across blocks, under an inner quantifier, a
// type binder over a term binder, and a match-pattern binder.
func TestInstantiateShadowedBinders(t *testing.T) {
	nat := kernel.Ty("nat")
	x, y := kernel.V("x"), kernel.V("y")
	for _, f := range []*kernel.Form{
		kernel.Forall("x", nat, kernel.Forall("y", nat, kernel.Forall("x", nat, kernel.Pred("P", x, y)))),
		kernel.Forall("x", nat, kernel.Impl(kernel.Pred("P", x), kernel.Forall("x", nat, kernel.Forall("y", nat, kernel.Pred("Q", x, y))))),
		kernel.Forall("x", nat, kernel.Forall("y", nat, kernel.Impl(kernel.Forall("x", nat, kernel.Pred("P", x, y)), kernel.Pred("Q", x)))),
		kernel.Forall("x", nat, kernel.Forall("x", kernel.TypeType, kernel.Pred("P", x))),
		kernel.Forall("x", kernel.TypeType, kernel.Forall("x", nat, kernel.Pred("P", x))),
		kernel.Forall("x", nat, kernel.Not(kernel.Exists("x", nat, kernel.Eq(x, y)))),
		kernel.Forall("x", nat, kernel.Forall("y", nat, kernel.Eq(
			kernel.NewMatch(x, []kernel.MatchCase{{Pat: kernel.A("O"), RHS: y}, {Pat: kernel.A("S", y), RHS: x}}), y))),
	} {
		for _, skip := range []int{0, 3} {
			if err := CheckInstantiation(f, skip); err != nil {
				t.Errorf("%s (skip %d): %v", f, skip, err)
			}
		}
	}
}

// The rejections that render their text on demand read as the fmt.Errorf
// texts they replaced.
func TestRejectionTexts(t *testing.T) {
	env := buildEnv(t)
	rejection := func(statement string, script ...string) string {
		t.Helper()
		st := NewState(env, stmt(t, env, statement))
		for i, sentence := range script {
			next, err := ApplySentence(st, sentence)
			if i == len(script)-1 {
				if err == nil {
					t.Fatalf("%q applied", sentence)
				}
				return err.Error()
			}
			if err != nil {
				t.Fatal(err)
			}
			st = next
		}
		return ""
	}
	for _, c := range []struct{ got, want string }{
		{rejection("le 1 0", "constructor."), "tactic: constructor le_n does not match"},
		{rejection("forall (n : nat), n = 0 -> n = n", "intros n H.", "induction n."),
			`tactic: cannot perform induction on "n": hypothesis H depends on it (revert it first)`},
		{rejection("forall (n : nat), n = 0 -> n = n", "intros n H.", "induction H."),
			"tactic: cannot induct on H : n = 0"},
		{rejection("forall (n : nat), le O (plus n n) -> n = n", "intros n H.", "induction H."),
			"tactic: cannot induct on H: rule le_n specializes a fixed index (revert first the hypotheses that mention its indices)"},
		{rejection("le 1 0", "apply le_nope."), `tactic: unknown hypothesis or lemma "le_nope"`},
		{rejection("le 1 0", "rewrite <- nope."), `tactic: unknown hypothesis or lemma "nope"`},
	} {
		if c.got != c.want {
			t.Errorf("rejection %q, want %q", c.got, c.want)
		}
	}
	g := &Goal{Concl: stmt(t, env, "twice O")}
	p := env.Preds["twice"]
	if _, err := applyRule(env, g, &p.Rules[1], false, nil); err == nil ||
		err.Error() != "tactic: constructor twice_refl leaves undetermined instances" {
		t.Errorf("undetermined rule: got %v", err)
	}
	if err := CheckProof(env, stmt(t, env, "forall (n m : nat), le n (plus n m) /\\ n = n"), "intros n m. split."); err == nil ||
		err.Error() != "tactic: proof incomplete, 2 goal(s) remain; focused:\nn : nat\nm : nat\n============================\nle n (n + m)" {
		t.Errorf("incomplete proof: got %v", err)
	}
}

// A term or formula argument with several stray identifiers is rejected
// with one text, naming the leftmost, however often it is applied.
func TestStrayIdentifierTextIsStable(t *testing.T) {
	env := buildEnv(t)
	st := NewState(env, stmt(t, env, "exists (n : nat), n = 0"))
	for sentence, want := range map[string]string{
		"exists (plus aa (plus bb (plus cc dd))).": `tactic: unknown identifier "aa" in term argument`,
		"exists (plus dd aa).":                     `tactic: unknown identifier "dd" in term argument`,
		"assert (plus dd aa = bb).":                `tactic: unknown identifier "dd" in formula argument`,
	} {
		texts := map[string]int{}
		for i := 0; i < 200; i++ {
			if _, err := ApplySentence(st, sentence); err != nil {
				texts[err.Error()]++
			}
		}
		if len(texts) != 1 || texts[want] != 200 {
			t.Errorf("%s: rejection texts %v, want %q 200 times", sentence, texts, want)
		}
	}
}

// TestNoTacticIdentifiesVariableWithConstant: with a constant c := O in
// scope, a hypothesis about a context variable named c says nothing about
// the constant, so the false goal c = 1 on the constant must not follow
// from c = 1 on the variable. The two render alike; omega's atoms,
// congruence's terms and assumption's fingerprint keys once confused them.
func TestNoTacticIdentifiesVariableWithConstant(t *testing.T) {
	env := buildEnv(t)
	if err := env.AddFun(&kernel.FunDef{Name: "c", RetType: kernel.Ty("nat"), Body: kernel.A("O")}); err != nil {
		t.Fatal(err)
	}
	one := kernel.NatLit(1)
	g := &Goal{
		Vars:  []kernel.TypedVar{{Name: "c", Type: kernel.Ty("nat")}},
		Hyps:  []Hyp{{Name: "H", Form: kernel.Eq(kernel.V("c"), one)}},
		Concl: kernel.Eq(kernel.A("c"), one),
	}
	for _, tac := range []string{"omega.", "congruence.", "assumption."} {
		if _, err := ApplySentence(&State{Env: env, Goals: []*Goal{g}}, tac); err == nil {
			t.Errorf("UNSOUND: %s proved c = 1 for the constant c := O from c = 1 for a variable", tac)
		}
	}
}
