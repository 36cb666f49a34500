// Package corpus loads the FSCQ-like verified development: an ordered set
// of .v-style source files that declare datatypes, functions, inductive
// predicates, definitions, and lemmas with human proof scripts. Loading
// resolves every declaration against the growing environment and
// machine-checks every human proof, so the corpus is a genuine verified
// library.
package corpus

import (
	"fmt"
	"sort"
	"strings"

	"llmfscq/internal/kernel"
	"llmfscq/internal/syntax"
	"llmfscq/internal/tactic"
)

// Category labels mirror the paper's Table 1 grouping.
type Category string

// Corpus categories.
const (
	Utilities  Category = "Utilities"
	CHL        Category = "CHL"
	FileSystem Category = "File System"
)

// SourceFile is one corpus file in dependency order.
type SourceFile struct {
	Name     string
	Category Category
	Src      string
}

// ItemKind classifies a corpus item for prompt construction.
type ItemKind int

// Item kinds.
const (
	ItemDatatype ItemKind = iota
	ItemFun
	ItemPred
	ItemDef
	ItemLemma
	ItemHint
	ItemImport
)

// Item is one declaration with its verbatim source (prompts quote these).
type Item struct {
	Kind ItemKind
	Name string
	Src  string
	// For lemmas: the statement-only source (without the proof), the
	// statement, and the proof script.
	StmtSrc string
	Stmt    *kernel.Form
	Proof   string
}

// Theorem is one proof obligation of the benchmark.
type Theorem struct {
	Name     string
	File     string
	Category Category
	Index    int // position within the file's item list
	Stmt     *kernel.Form
	Proof    string // human proof script
}

// Corpus is the loaded development.
type Corpus struct {
	Env      *kernel.Env
	Files    []string
	Items    map[string][]Item // per file, in order
	Imports  map[string][]string
	Theorems []*Theorem
	byName   map[string]*Theorem
}

// TheoremNamed returns a theorem by name.
func (c *Corpus) TheoremNamed(name string) (*Theorem, bool) {
	t, ok := c.byName[name]
	return t, ok
}

// ImportClosure returns the files transitively visible from file via
// Require Import, in corpus load order, ending with the file itself.
// Prompt assembly uses it. The corpus analyzers keep their own,
// analysis.Development.ImportClosure, over the parsed development they
// lint, which is not a loaded Corpus.
func (c *Corpus) ImportClosure(file string) []string {
	visible := map[string]bool{}
	var visit func(f string)
	visit = func(f string) {
		if visible[f] {
			return
		}
		visible[f] = true
		for _, imp := range c.Imports[f] {
			visit(imp)
		}
	}
	visit(file)
	var out []string
	for _, f := range c.Files {
		if visible[f] {
			out = append(out, f)
		}
	}
	return out
}

// Load parses and resolves the given files in order, machine-checking
// every human proof in the environment declared before it.
func Load(files []SourceFile) (*Corpus, error) {
	c := &Corpus{
		Env:     kernel.NewEnv(),
		Items:   map[string][]Item{},
		Imports: map[string][]string{},
		byName:  map[string]*Theorem{},
	}
	seen := map[string]bool{}
	for _, f := range files {
		if seen[f.Name] {
			return nil, fmt.Errorf("corpus: duplicate file %q", f.Name)
		}
		seen[f.Name] = true
		if err := c.loadFile(f); err != nil {
			return nil, fmt.Errorf("corpus: file %s: %w", f.Name, err)
		}
		c.Files = append(c.Files, f.Name)
	}
	return c, nil
}

func (c *Corpus) loadFile(f SourceFile) error {
	vp, err := syntax.NewVernParser(f.Src)
	if err != nil {
		return err
	}
	decls, err := vp.ParseFileSpans()
	if err != nil {
		return err
	}
	for _, sd := range decls {
		if err := c.loadDecl(f, sd); err != nil {
			return err
		}
	}
	return nil
}

func (c *Corpus) loadDecl(f SourceFile, sd syntax.SpannedDecl) error {
	env := c.Env
	switch d := sd.Decl.(type) {
	case syntax.DImport:
		found := false
		for _, prev := range c.Files {
			if prev == d.Module {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("import of unknown or later module %q", d.Module)
		}
		c.Imports[f.Name] = append(c.Imports[f.Name], d.Module)
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemImport, Name: d.Module, Src: sd.Src})
		return nil

	case syntax.DDatatype:
		if err := env.AddDatatype(d.Datatype); err != nil {
			return err
		}
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemDatatype, Name: d.Datatype.Name, Src: sd.Src})
		return nil

	case syntax.DIndPred:
		p := &kernel.IndPred{Name: d.Name, Arity: len(d.ArgTypes), ArgTypes: d.ArgTypes}
		// Register before resolving rules so recursive occurrences resolve.
		if err := env.AddPred(p); err != nil {
			return err
		}
		tparams := map[string]bool{}
		for _, tp := range d.TypeParams {
			tparams[tp] = true
		}
		for _, raw := range d.Rules {
			rule, err := resolveRule(env, p, raw, tparams)
			if err != nil {
				return fmt.Errorf("rule %s of %s: %w", raw.Name, d.Name, err)
			}
			p.Rules = append(p.Rules, *rule)
		}
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemPred, Name: d.Name, Src: sd.Src})
		return nil

	case syntax.DFun:
		fd := &kernel.FunDef{
			Name:      d.Name,
			Params:    d.Params,
			RetType:   d.RetType,
			Body:      nil,
			Recursive: d.Recursive,
		}
		if err := env.AddFun(fd); err != nil {
			return err
		}
		bound := map[string]bool{}
		for _, p := range d.Params {
			bound[p.Name] = true
		}
		body, err := syntax.ResolveTerm(env, d.Body, bound)
		if err != nil {
			return fmt.Errorf("function %s: %w", d.Name, err)
		}
		if err := checkTermNames(env, body); err != nil {
			return fmt.Errorf("function %s: %w", d.Name, err)
		}
		fd.Body = body
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemFun, Name: d.Name, Src: sd.Src})
		return nil

	case syntax.DPredDef:
		bound := map[string]bool{}
		for _, p := range d.Params {
			bound[p.Name] = true
		}
		body, err := syntax.ResolveForm(env, d.Body, bound)
		if err != nil {
			return fmt.Errorf("definition %s: %w", d.Name, err)
		}
		if err := env.AddDef(&kernel.PredDef{Name: d.Name, Params: d.Params, Body: body}); err != nil {
			return err
		}
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemDef, Name: d.Name, Src: sd.Src})
		return nil

	case syntax.DLemma:
		stmt, err := syntax.ResolveForm(env, d.Stmt, map[string]bool{})
		if err != nil {
			return fmt.Errorf("lemma %s: %w", d.Name, err)
		}
		if free := stmt.FreeVars(); len(free) > 0 {
			return fmt.Errorf("lemma %s: unbound identifiers %v", d.Name, keys(free))
		}
		if err := tactic.CheckProof(env, stmt, d.Proof); err != nil {
			return fmt.Errorf("lemma %s: human proof fails: %w", d.Name, err)
		}
		if err := env.AddLemma(&kernel.Lemma{Name: d.Name, Stmt: stmt}); err != nil {
			return err
		}
		stmtSrc := sd.Src
		if i := strings.Index(stmtSrc, "Proof."); i >= 0 {
			stmtSrc = strings.TrimSpace(stmtSrc[:i])
		}
		item := Item{Kind: ItemLemma, Name: d.Name, Src: sd.Src, StmtSrc: stmtSrc, Stmt: stmt, Proof: d.Proof}
		idx := len(c.Items[f.Name])
		c.Items[f.Name] = append(c.Items[f.Name], item)
		th := &Theorem{
			Name:     d.Name,
			File:     f.Name,
			Category: f.Category,
			Index:    idx,
			Stmt:     stmt,
			Proof:    d.Proof,
		}
		c.Theorems = append(c.Theorems, th)
		c.byName[d.Name] = th
		return nil

	case syntax.DHint:
		var names []string
		if d.Constructors {
			for _, pname := range d.Names {
				p, ok := env.Preds[pname]
				if !ok {
					return fmt.Errorf("Hint Constructors: unknown predicate %q", pname)
				}
				for _, r := range p.Rules {
					names = append(names, r.Name)
				}
			}
		} else {
			for _, n := range d.Names {
				if _, ok := env.Lemmas[n]; ok {
					names = append(names, n)
					continue
				}
				if _, r := env.RuleNamed(n); r != nil {
					names = append(names, n)
					continue
				}
				return fmt.Errorf("Hint Resolve: unknown lemma %q", n)
			}
		}
		for _, n := range names {
			env.AddHint(n)
		}
		c.Items[f.Name] = append(c.Items[f.Name], Item{Kind: ItemHint, Name: strings.Join(d.Names, " "), Src: sd.Src})
		return nil
	}
	return fmt.Errorf("unsupported declaration %T", sd.Decl)
}

// resolveRule turns a raw rule formula into a kernel.Rule.
func resolveRule(env *kernel.Env, p *kernel.IndPred, raw syntax.RawRule, tparams map[string]bool) (*kernel.Rule, error) {
	binders, matrix := raw.Form.StripForalls()
	var vars []kernel.TypedVar
	tvars := map[string]bool{}
	for tp := range tparams {
		tvars[tp] = true
	}
	for _, b := range binders {
		if b.Type.IsType() {
			tvars[b.Name] = true
			continue
		}
		vars = append(vars, b)
	}
	for i := range vars {
		vars[i].Type = syntax.MarkTypeVars(vars[i].Type, tvars)
	}
	prems, concl := matrix.StripImpls()
	bound := map[string]bool{}
	for _, v := range vars {
		bound[v.Name] = true
	}
	rconcl, err := syntax.ResolveForm(env, concl, bound)
	if err != nil {
		return nil, err
	}
	if rconcl.Kind != kernel.FPred || rconcl.Pred != p.Name {
		return nil, fmt.Errorf("conclusion must be an application of %s, got %s", p.Name, rconcl)
	}
	if len(rconcl.Args) != p.Arity {
		return nil, fmt.Errorf("conclusion arity %d, expected %d", len(rconcl.Args), p.Arity)
	}
	rule := &kernel.Rule{Name: raw.Name, PredName: p.Name, Vars: vars, ConclArgs: rconcl.Args}
	for _, prem := range prems {
		rp, err := syntax.ResolveForm(env, prem, bound)
		if err != nil {
			return nil, err
		}
		rule.Prems = append(rule.Prems, rp)
	}
	return rule, nil
}

// checkTermNames verifies that every application head in t names a known
// constructor or function.
func checkTermNames(env *kernel.Env, t *kernel.Term) error {
	var bad string
	t.Subterms(func(u *kernel.Term) bool {
		if u.IsApp() {
			if !env.IsConstructor(u.Fun) {
				if _, ok := env.Funs[u.Fun]; !ok {
					bad = u.Fun
					return false
				}
			}
		}
		return true
	})
	if bad != "" {
		return fmt.Errorf("unknown function or constructor %q", bad)
	}
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
