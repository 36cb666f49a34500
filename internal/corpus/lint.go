package corpus

import (
	"fmt"
	"sort"
	"strings"

	"llmfscq/internal/kernel"
	"llmfscq/internal/tactic"
)

// Finding is one report of Lint.
type Finding struct {
	Check   string // dupstmt, introshyps, noprogress or importclosure
	File    string // corpus file name
	Line    int
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s.v:%d: %s: %s", f.File, f.Line, f.Check, f.Message)
}

// Lint runs the corpus checks over the loaded development and returns their
// findings sorted by file, line, check and message. Load has resolved every
// declaration and checked every proof; the checks flag what it accepts but
// a verified library should not carry:
//
//   - dupstmt: a lemma whose statement is alpha-equivalent to an earlier
//     one's (equal fingerprint keys under positional binder renaming), which
//     restates existing work under a new name;
//   - introshyps: a hypothesis named by intro/intros that no later tactic
//     references. Proofs using a tactic that may use a hypothesis it never
//     names (the tactic table's SweepsHyps: auto, subst, bare discriminate,
//     ...) are skipped;
//   - noprogress: a try or repeat that cannot make progress: redundant
//     nesting (try (repeat t), try (try t), repeat (repeat t),
//     repeat (try t)), a tactic the table lacks inside one, whose failure it
//     hides, or a body whose NamesTarget tactic names what is neither a
//     global name nor one the script introduces;
//   - importclosure: a declaration referencing a name declared in a file
//     outside its own file's Require Import closure, which works only by
//     accident of load order. One finding per missing file, at its first
//     use.
func (c *Corpus) Lint() []Finding {
	var out []Finding
	type lemmaSite struct {
		name, file string
		line       int
	}
	firstStmt := map[[2]uint64]lemmaSite{}
	for _, file := range c.Files {
		closure := map[string]bool{}
		for _, f := range c.ImportClosure(file) {
			closure[f] = true
		}
		missing := map[string]bool{}
		for i := range c.Items[file] {
			it := &c.Items[file][i]
			report := func(check, msg string) {
				out = append(out, Finding{Check: check, File: file, Line: it.Line, Message: msg})
			}
			var calls []tactic.Call
			if it.Kind == ItemLemma {
				script, _ := tactic.ParseScript(it.Proof) // Load checked the proof, so it parses
				calls = flatten(script)
				fp := it.Stmt.FingerprintKey()
				if prev, dup := firstStmt[fp]; dup {
					report("dupstmt", fmt.Sprintf("statement of %s is alpha-equivalent to %s (%s.v:%d); reuse it instead",
						it.Name, prev.name, prev.file, prev.line))
				} else {
					firstStmt[fp] = lemmaSite{it.Name, file, it.Line}
				}
				introsHyps(it, calls, report)
				c.noProgress(it, script, calls, report)
			}
			user := it.Name
			if it.Kind == ItemHint {
				user = "Hint"
			}
			for _, ref := range c.refs(it, calls) {
				decl := c.names[ref].file
				if closure[decl] || missing[decl] {
					continue
				}
				missing[decl] = true
				report("importclosure", fmt.Sprintf("%s (used by %s) is defined in module %s, which is not in this file's Require Import closure; add `Require Import %s.`",
					ref, user, decl, decl))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

// refs returns the global names an item's declaration references, sorted:
// those of its kernel object in c.Env and, for a lemma, of its proof's
// tactic calls.
func (c *Corpus) refs(it *Item, calls []tactic.Call) []string {
	set := map[string]bool{}
	v := nameVisitor(func(n string) {
		if _, ok := c.names[n]; ok {
			set[n] = true
		}
	})
	switch it.Kind {
	case ItemDatatype:
		for _, k := range c.Env.Datatypes[it.Name].Constructors {
			for _, ty := range k.ArgTypes {
				v.typ(ty)
			}
		}
	case ItemPred:
		p := c.Env.Preds[it.Name]
		for _, ty := range p.ArgTypes {
			v.typ(ty)
		}
		for i := range p.Rules {
			v.form(p.Rules[i].Statement())
		}
	case ItemFun:
		fd := c.Env.Funs[it.Name]
		v.vars(fd.Params)
		v.typ(fd.RetType)
		v.term(fd.Body)
	case ItemDef:
		d := c.Env.Defs[it.Name]
		v.vars(d.Params)
		v.form(d.Body)
	case ItemHint:
		for _, n := range strings.Fields(it.Name) {
			v(n)
		}
	case ItemLemma:
		v.form(it.Stmt)
		for _, call := range calls {
			v.call(call)
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// introsHyps reports each hypothesis the proof names in intro/intros and
// never references.
func introsHyps(it *Item, calls []tactic.Call, report func(check, msg string)) {
	var introduced []string
	used := map[string]bool{}
	mark := nameVisitor(func(n string) { used[n] = true })
	for _, call := range calls {
		v, _ := tactic.Lookup(call.Name)
		switch {
		case v.SweepsHyps:
			return
		case call.Name == "intro" || call.Name == "intros":
			introduced = append(introduced, call.Idents...)
		default:
			mark.call(call)
		}
	}
	// The statement's binders are term variables, not hypotheses: after
	// `intros n`, n is in the goal even if no tactic names it.
	mark.binders(it.Stmt)
	for _, name := range introduced {
		if used[name] {
			continue
		}
		used[name] = true // one finding per name
		report("introshyps", "hypothesis "+name+" introduced by intros in "+it.Name+
			" is never referenced; drop the name (use plain intros) or the hypothesis")
	}
}

// nestedCombinators explains each redundant nesting, keyed by the outer
// and the inner combinator.
var nestedCombinators = map[[2]string]string{
	{"try", "try"}:       "try (try ...) is redundant; one try suffices",
	{"try", "repeat"}:    "try (repeat ...) is redundant; repeat never fails",
	{"repeat", "try"}:    "repeat (try ...) never fails, so it relies solely on the progress check; drop the try",
	{"repeat", "repeat"}: "repeat (repeat ...) is redundant; one repeat suffices",
}

// noProgress reports the try/repeat combinators of one proof that cannot
// make progress.
func (c *Corpus) noProgress(it *Item, script []tactic.Expr, calls []tactic.Call, report func(check, msg string)) {
	// The local names a combinator body may apply: the statement's binders
	// (plain intros introduces hypotheses under them) and every name the
	// script introduces, by intro, assert, an as-pattern or an eqn: clause.
	scope := map[string]bool{}
	nameVisitor(func(n string) { scope[n] = true }).binders(it.Stmt)
	for _, call := range calls {
		switch call.Name {
		case "intro", "intros", "assert":
			for _, id := range call.Idents {
				scope[id] = true
			}
		}
		scope[call.EqnName] = true
		patternNames(call.Pattern, scope)
	}
	flag := func(msg string) { report("noprogress", msg+" (in proof of "+it.Name+")") }
	var walk func(e tactic.Expr)
	var body func(e tactic.Expr, comb string)
	walk = func(e tactic.Expr) {
		switch t := e.(type) {
		case tactic.Seq:
			walk(t.First)
			walk(t.Then)
		case tactic.Dispatch:
			walk(t.First)
			for _, b := range t.Branches {
				walk(b)
			}
		case tactic.Alt:
			walk(t.A)
			walk(t.B)
		case tactic.Try:
			body(t.T, "try")
		case tactic.Repeat:
			body(t.T, "repeat")
		}
	}
	// body checks what a try or repeat combinator comb runs.
	body = func(e tactic.Expr, comb string) {
		switch t := e.(type) {
		case tactic.Try:
			flag(nestedCombinators[[2]string{comb, "try"}])
			body(t.T, "try")
		case tactic.Repeat:
			flag(nestedCombinators[[2]string{comb, "repeat"}])
			body(t.T, "repeat")
		case tactic.Alt:
			body(t.A, comb)
			body(t.B, comb)
		case tactic.Call:
			v, known := tactic.Lookup(t.Name)
			if !known {
				flag("unknown tactic " + t.Name + " inside " + comb + " can never apply; the combinator hides the failure")
				return
			}
			if !v.NamesTarget || len(t.Idents) == 0 {
				return
			}
			if name := t.Idents[0]; !scope[name] {
				if _, global := c.names[name]; !global {
					flag(t.Name + " " + name + " inside " + comb +
						" references a name that is neither a global symbol nor introduced by the script; it can never apply")
				}
			}
		default:
			walk(e)
		}
	}
	for _, e := range script {
		walk(e)
	}
}

// flatten lists every tactic call of a script, in syntax order.
func flatten(script []tactic.Expr) []tactic.Call {
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
				walk(b)
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

func patternNames(p *tactic.IntroPattern, into map[string]bool) {
	if p == nil {
		return
	}
	into[p.Name] = true
	for _, alt := range p.Alts {
		for _, sub := range alt {
			patternNames(sub, into)
		}
	}
}

// nameVisitor is called on every identifier a walk meets: variables,
// function and constructor heads, predicate and definition names, type
// names, and a tactic call's identifier arguments.
type nameVisitor func(string)

func (v nameVisitor) typ(t *kernel.Type) {
	if t == nil || t.TVar {
		return
	}
	v(t.Name)
	for _, a := range t.Args {
		v.typ(a)
	}
}

func (v nameVisitor) vars(vs []kernel.TypedVar) {
	for _, x := range vs {
		v.typ(x.Type)
	}
}

func (v nameVisitor) term(t *kernel.Term) {
	switch {
	case t == nil:
	case t.IsVar():
		v(t.Var)
	case t.Match != nil:
		v.term(t.Match.Scrut)
		for _, mc := range t.Match.Cases {
			v.term(mc.Pat)
			v.term(mc.RHS)
		}
	default:
		v(t.Fun)
		for _, a := range t.Args {
			v.term(a)
		}
	}
}

func (v nameVisitor) form(f *kernel.Form) {
	if f == nil {
		return
	}
	switch f.Kind {
	case kernel.FEq:
		v.term(f.T1)
		v.term(f.T2)
	case kernel.FPred:
		v(f.Pred)
		for _, a := range f.Args {
			v.term(a)
		}
	case kernel.FForall, kernel.FExists:
		v.typ(f.BType)
		v.form(f.Body)
	default:
		v.form(f.L)
		v.form(f.R)
	}
}

// binders visits the names a formula's quantifiers bind.
func (v nameVisitor) binders(f *kernel.Form) {
	if f == nil {
		return
	}
	switch f.Kind {
	case kernel.FForall, kernel.FExists:
		v(f.Binder)
		v.binders(f.Body)
	case kernel.FEq, kernel.FPred:
	default:
		v.binders(f.L)
		v.binders(f.R)
	}
}

func (v nameVisitor) call(c tactic.Call) {
	for _, id := range c.Idents {
		v(id)
	}
	v(c.InHyp)
	for _, t := range c.Terms {
		v.term(t)
	}
	for _, f := range c.Forms {
		v.form(f)
	}
}
