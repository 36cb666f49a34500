package analysis

import (
	"fmt"
	"sort"

	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// knownTactics mirrors the dispatch table of the tactic engine. A tactic
// name outside this set can never apply, so wrapping it in try/repeat
// silently does nothing.
var knownTactics = map[string]bool{
	"idtac": true, "intro": true, "intros": true,
	"assumption": true, "eassumption": true, "exact": true,
	"split": true, "left": true, "right": true, "exists": true,
	"exfalso": true, "clear": true, "revert": true, "generalize": true,
	"subst": true, "simpl": true, "unfold": true,
	"reflexivity": true, "symmetry": true, "f_equal": true,
	"contradiction": true, "discriminate": true,
	"assert": true, "specialize": true, "apply": true, "eapply": true,
	"constructor": true, "econstructor": true,
	"destruct": true, "induction": true, "rewrite": true,
	"inversion": true, "inversion_clear": true,
	"auto": true, "eauto": true, "trivial": true,
	"lia": true, "omega": true, "congruence": true,
}

// sweeperTactics consult the entire hypothesis context, so their presence
// makes "hypothesis never referenced" unverifiable syntactically.
var sweeperTactics = map[string]bool{
	"auto": true, "eauto": true, "assumption": true, "eassumption": true,
	"trivial": true, "lia": true, "omega": true, "congruence": true,
	"contradiction": true, "subst": true, "easy": true,
}

// ---------------------------------------------------------------------------
// dupstmt

var analyzerDupStmt = &Analyzer{
	Name: "dupstmt",
	Doc: "flags theorem statements that are alpha-equivalent to an earlier one " +
		"(same fingerprint key under positional binder renaming): the later lemma " +
		"restates existing work under a new name",
	Corpus: runDupStmt,
}

func runDupStmt(dev *Development) []Finding {
	first := map[[2]uint64]*DevLemma{}
	var out []Finding
	for _, lem := range dev.Lemmas {
		if lem.Stmt == nil {
			continue
		}
		fp := lem.Stmt.FingerprintKey()
		if prev, dup := first[fp]; dup {
			out = append(out, Finding{
				Analyzer: "dupstmt", File: lem.File, Line: lem.Line,
				Message: fmt.Sprintf("statement of %s is alpha-equivalent to %s (%s:%d); reuse it instead",
					lem.Name, prev.Name, prev.File, prev.Line),
			})
			continue
		}
		first[fp] = lem
	}
	return out
}

// ---------------------------------------------------------------------------
// introshyps

var analyzerIntrosHyps = &Analyzer{
	Name: "introshyps",
	Doc: "flags hypotheses named by intro/intros (or eqn:/as clauses) that no " +
		"later tactic references. Lemmas whose scripts use context-sweeping " +
		"tactics (auto, lia, congruence, ...) are skipped: those consult every " +
		"hypothesis",
	Corpus: runIntrosHyps,
}

func runIntrosHyps(dev *Development) []Finding {
	var out []Finding
	for _, lem := range dev.Lemmas {
		if lem.Script == nil {
			continue
		}
		calls := flattenCalls(lem.Script)
		if hasSweeper(calls) {
			continue
		}
		// Statement binder names are term variables, not hypotheses: after
		// `intros n`, n appears in the remaining goal even if no tactic
		// mentions it. Only fresh names (implication hypotheses) must be
		// referenced to be useful.
		binders := map[string]bool{}
		collectBinders(lem.Stmt, binders)
		introduced := []string{} // in order of introduction
		used := map[string]bool{}
		for _, c := range calls {
			switch c.Name {
			case "intro", "intros":
				introduced = append(introduced, c.Idents...)
			default:
				for _, id := range c.Idents {
					used[id] = true
				}
			}
			if c.InHyp != "" && c.InHyp != "*" {
				used[c.InHyp] = true
			}
			for _, tm := range c.Terms {
				collectTermNames(tm, used)
			}
			for _, f := range c.Forms {
				collectFormNames(f, used)
			}
		}
		seen := map[string]bool{}
		for _, name := range introduced {
			if used[name] || binders[name] || seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, Finding{
				Analyzer: "introshyps", File: lem.File, Line: lem.Line,
				Message: "hypothesis " + name + " introduced by intros in " + lem.Name +
					" is never referenced; drop the name (use plain intros) or the hypothesis",
			})
		}
	}
	return out
}

func hasSweeper(calls []tactic.Call) bool {
	for _, c := range calls {
		if sweeperTactics[c.Name] {
			return true
		}
	}
	return false
}

// flattenCalls lists every Call in the script, in syntax order.
func flattenCalls(script []tactic.Expr) []tactic.Call {
	var out []tactic.Call
	var walk func(e tactic.Expr)
	walk = func(e tactic.Expr) {
		switch t := e.(type) {
		case tactic.Seq:
			walk(t.First)
			walk(t.Then)
		case tactic.Dispatch:
			walk(t.First)
			for _, b := range t.Branches {
				if b != nil {
					walk(b)
				}
			}
		case tactic.Alt:
			walk(t.A)
			walk(t.B)
		case tactic.Try:
			walk(t.T)
		case tactic.Repeat:
			walk(t.T)
		case tactic.Call:
			out = append(out, t)
		}
	}
	for _, e := range script {
		walk(e)
	}
	return out
}

// collectTermNames gathers every identifier occurring in a term (variables
// and applied heads), without symbol-table filtering.
func collectTermNames(t *kernel.Term, into map[string]bool) {
	if t == nil {
		return
	}
	switch {
	case t.IsVar():
		into[t.Var] = true
	case t.Match != nil:
		collectTermNames(t.Match.Scrut, into)
		for _, c := range t.Match.Cases {
			collectTermNames(c.Pat, into)
			collectTermNames(c.RHS, into)
		}
	default:
		into[t.Fun] = true
		for _, a := range t.Args {
			collectTermNames(a, into)
		}
	}
}

func collectFormNames(f *kernel.Form, into map[string]bool) {
	if f == nil {
		return
	}
	switch f.Kind {
	case kernel.FEq:
		collectTermNames(f.T1, into)
		collectTermNames(f.T2, into)
	case kernel.FPred:
		into[f.Pred] = true
		for _, a := range f.Args {
			collectTermNames(a, into)
		}
	case kernel.FForall, kernel.FExists:
		collectFormNames(f.Body, into)
	default:
		collectFormNames(f.L, into)
		collectFormNames(f.R, into)
	}
}

// ---------------------------------------------------------------------------
// noprogress

var analyzerNoProgress = &Analyzer{
	Name: "noprogress",
	Doc: "flags try/repeat combinators that cannot make progress: redundant " +
		"nesting (try(repeat t), try(try t), repeat(repeat t), repeat(try t)), " +
		"unknown tactic names inside a combinator (the failure is silently " +
		"swallowed), and combinator bodies applying names that resolve to " +
		"neither a global symbol nor anything the script could have introduced",
	Corpus: runNoProgress,
}

// nameUsingTactics are the tactics whose first identifier argument must
// resolve to a global symbol or an in-scope hypothesis for the tactic to
// ever apply.
var nameUsingTactics = map[string]bool{
	"apply": true, "eapply": true, "rewrite": true, "unfold": true,
	"exact": true, "destruct": true, "induction": true,
	"inversion": true, "inversion_clear": true,
}

func runNoProgress(dev *Development) []Finding {
	var out []Finding
	for _, lem := range dev.Lemmas {
		if lem.Script == nil {
			continue
		}
		scope := scriptScope(dev, lem)
		report := func(msg string) {
			out = append(out, Finding{
				Analyzer: "noprogress", File: lem.File, Line: lem.Line,
				Message: msg + " (in proof of " + lem.Name + ")",
			})
		}
		var inspectBody func(e tactic.Expr, comb string)
		var walk func(e tactic.Expr)
		// inspectBody checks the direct body of a try/repeat combinator.
		inspectBody = func(e tactic.Expr, comb string) {
			switch t := e.(type) {
			case tactic.Try:
				switch comb {
				case "try":
					report("try (try ...) is redundant; one try suffices")
				case "repeat":
					report("repeat (try ...) never fails, so it relies solely on the progress check; drop the try")
				}
				inspectBody(t.T, "try")
			case tactic.Repeat:
				switch comb {
				case "try":
					report("try (repeat ...) is redundant; repeat never fails")
				case "repeat":
					report("repeat (repeat ...) is redundant; one repeat suffices")
				}
				inspectBody(t.T, "repeat")
			case tactic.Seq:
				walk(t.First)
				walk(t.Then)
			case tactic.Dispatch:
				walk(t.First)
				for _, b := range t.Branches {
					if b != nil {
						walk(b)
					}
				}
			case tactic.Alt:
				inspectBody(t.A, comb)
				inspectBody(t.B, comb)
			case tactic.Call:
				if !knownTactics[t.Name] {
					report("unknown tactic " + t.Name + " inside " + comb + " can never apply; the combinator hides the failure")
					return
				}
				if nameUsingTactics[t.Name] && len(t.Idents) > 0 {
					name := t.Idents[0]
					if !scope[name] {
						report(t.Name + " " + name + " inside " + comb +
							" references a name that is neither a global symbol nor introduced by the script; it can never apply")
					}
				}
			}
		}
		walk = func(e tactic.Expr) {
			switch t := e.(type) {
			case tactic.Seq:
				walk(t.First)
				walk(t.Then)
			case tactic.Dispatch:
				walk(t.First)
				for _, b := range t.Branches {
					if b != nil {
						walk(b)
					}
				}
			case tactic.Alt:
				walk(t.A)
				walk(t.B)
			case tactic.Try:
				inspectBody(t.T, "try")
			case tactic.Repeat:
				inspectBody(t.T, "repeat")
			}
		}
		for _, e := range lem.Script {
			walk(e)
		}
	}
	return out
}

// scriptScope computes the set of names a combinator body could legitimately
// reference: global symbols, the lemma statement's binder names (plain
// `intros` introduces hypotheses under those names), every name the script
// introduces (intro arguments, as-patterns, eqn: clauses, assert bindings),
// and conventional H/IH-prefixed hypothesis names.
func scriptScope(dev *Development, lem *DevLemma) map[string]bool {
	scope := map[string]bool{}
	for name := range dev.Symbols {
		scope[name] = true
	}
	collectBinders(lem.Stmt, scope)
	for _, c := range flattenCalls(lem.Script) {
		switch c.Name {
		case "intro", "intros", "assert":
			for _, id := range c.Idents {
				scope[id] = true
			}
		}
		if c.EqnName != "" {
			scope[c.EqnName] = true
		}
		collectPatternNames(c.Pattern, scope)
	}
	return scope
}

func collectBinders(f *kernel.Form, into map[string]bool) {
	if f == nil {
		return
	}
	switch f.Kind {
	case kernel.FForall, kernel.FExists:
		into[f.Binder] = true
		collectBinders(f.Body, into)
	case kernel.FEq, kernel.FPred:
	default:
		collectBinders(f.L, into)
		collectBinders(f.R, into)
	}
}

func collectPatternNames(p *tactic.IntroPattern, into map[string]bool) {
	if p == nil {
		return
	}
	if p.Name != "" {
		into[p.Name] = true
	}
	for _, alt := range p.Alts {
		for _, sub := range alt {
			collectPatternNames(sub, into)
		}
	}
}

// ---------------------------------------------------------------------------
// importclosure

var analyzerImportClosure = &Analyzer{
	Name: "importclosure",
	Doc: "flags declarations referencing a symbol defined in a module that is " +
		"not in the file's transitive Require Import closure: the dependency " +
		"works only by accident of global load order",
	Corpus: runImportClosure,
}

func runImportClosure(dev *Development) []Finding {
	fileModule := map[string]string{}
	for _, f := range dev.Files {
		fileModule[f.Name] = f.Module
	}
	var out []Finding
	for _, f := range dev.Files {
		closure := dev.ImportClosure(f.Name)
		// One finding per missing module, at its first use in the file.
		type firstUse struct {
			line int
			decl string
			sym  string
		}
		missing := map[string]firstUse{}
		for _, d := range f.Decls {
			for _, ref := range d.Refs {
				sym := dev.Symbols[ref]
				if sym == nil || sym.File == f.Name {
					continue
				}
				mod := fileModule[sym.File]
				if closure[mod] {
					continue
				}
				if _, seen := missing[mod]; !seen {
					missing[mod] = firstUse{line: d.Line, decl: d.Name, sym: ref}
				}
			}
		}
		mods := make([]string, 0, len(missing))
		for m := range missing {
			mods = append(mods, m)
		}
		sort.Strings(mods)
		for _, m := range mods {
			use := missing[m]
			out = append(out, Finding{
				Analyzer: "importclosure", File: f.Name, Line: use.line,
				Message: fmt.Sprintf("%s (used by %s) is defined in module %s, which is not in this file's Require Import closure; add `Require Import %s.`",
					use.sym, use.decl, m, m),
			})
		}
	}
	return out
}
