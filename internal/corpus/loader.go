// Package corpus loads the FSCQ-like verified development: an ordered set
// of .v-style source files that declare datatypes, functions, inductive
// predicates, definitions, and lemmas with human proof scripts. Loading
// resolves every declaration against the growing environment, in one
// namespace, and machine-checks every human proof, so the corpus is a
// genuine verified library. The loaded corpus also gives each theorem the
// environment it is proved in (EnvBefore) and checks itself for what a
// verified library should not carry (Lint).
package corpus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
	Line int // 1-based line of the declaration's first token in its file
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
	// names is the development's one namespace: every datatype,
	// constructor, function, predicate, rule, definition and lemma, with
	// where it is declared.
	names map[string]declSite

	prefixOnce sync.Once
	prefixEnvs map[string]*kernel.Env // see EnvBefore
}

// declSite is where a global name is declared.
type declSite struct {
	kind string
	file string
	line int
}

// TheoremNamed returns a theorem by name.
func (c *Corpus) TheoremNamed(name string) (*Theorem, bool) {
	t, ok := c.byName[name]
	return t, ok
}

// ImportClosure returns the files transitively visible from file via
// Require Import, in corpus load order, ending with the file itself.
// Prompt assembly and Lint's importclosure check use it.
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

// EnvBefore returns the environment the named lemma is proved in: c.Env as
// it stood just before the lemma was declared. Only lemmas and their hints
// are cut: the lemma and every later one leave the lemma table, and hints
// naming them leave the hint database. Hints naming inductive rules, and
// every datatype, constructor, function, predicate and definition, stay
// visible; those maps are c.Env's own. It returns nil when name is not a
// lemma.
//
// The environments of all lemmas are built together on first use, in one
// declaration-order pass, and shared by every caller; treat them as
// read-only.
func (c *Corpus) EnvBefore(name string) *kernel.Env {
	c.prefixOnce.Do(c.buildEnvsBefore)
	return c.prefixEnvs[name]
}

// buildEnvsBefore walks LemmaOrder once, snapshotting the growing lemma
// prefix just before each declaration. The snapshot for lemma i costs O(i)
// map inserts; every other structure, the LemmaOrder backing array
// included, is shared with the full environment.
func (c *Corpus) buildEnvsBefore() {
	full := c.Env
	// lemIdx positions each lemma-backed hint so the per-lemma hint filter
	// is a single comparison.
	lemIdx := make(map[string]int, len(full.LemmaOrder))
	for i, name := range full.LemmaOrder {
		lemIdx[name] = i
	}
	envs := make(map[string]*kernel.Env, len(full.LemmaOrder))
	running := make(map[string]*kernel.Lemma, len(full.LemmaOrder))
	for i, name := range full.LemmaOrder {
		lemmas := make(map[string]*kernel.Lemma, len(running))
		for k, v := range running {
			lemmas[k] = v
		}
		hints := make(map[string]bool, len(full.Hints))
		hintOrder := make([]string, 0, len(full.HintOrder))
		for _, h := range full.HintOrder {
			// Hints name lemmas or inductive rules; rules are never cut.
			if idx, isLemma := lemIdx[h]; isLemma && idx >= i {
				continue
			}
			hints[h] = true
			hintOrder = append(hintOrder, h)
		}
		envs[name] = &kernel.Env{
			Datatypes:  full.Datatypes,
			ConstrData: full.ConstrData,
			Funs:       full.Funs,
			Preds:      full.Preds,
			Defs:       full.Defs,
			Lemmas:     lemmas,
			LemmaOrder: full.LemmaOrder[:i:i],
			Hints:      hints,
			HintOrder:  hintOrder,
		}
		running[name] = full.Lemmas[name]
	}
	c.prefixEnvs = envs
}

// Load parses and resolves the given files in order, machine-checking
// every human proof in the environment declared before it. The development
// has one namespace: a global name declared twice, whatever the two
// declarations' kinds, is an error naming both.
func Load(files []SourceFile) (*Corpus, error) {
	c := &Corpus{
		Env:     kernel.NewEnv(),
		Items:   map[string][]Item{},
		Imports: map[string][]string{},
		byName:  map[string]*Theorem{},
		names:   map[string]declSite{},
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
		if err := c.declare(f.Name, sd); err != nil {
			return err
		}
		it, err := c.loadDecl(f, sd)
		if err != nil {
			return err
		}
		it.Line = sd.Line
		c.Items[f.Name] = append(c.Items[f.Name], it)
	}
	return nil
}

// declare enters the global names sd declares into the namespace.
func (c *Corpus) declare(file string, sd syntax.SpannedDecl) error {
	type named struct{ kind, name string }
	var ns []named
	switch d := sd.Decl.(type) {
	case syntax.DDatatype:
		ns = append(ns, named{"datatype", d.Datatype.Name})
		for _, k := range d.Datatype.Constructors {
			ns = append(ns, named{"constructor", k.Name})
		}
	case syntax.DIndPred:
		ns = append(ns, named{"predicate", d.Name})
		for _, r := range d.Rules {
			ns = append(ns, named{"rule", r.Name})
		}
	case syntax.DFun:
		ns = append(ns, named{"function", d.Name})
	case syntax.DPredDef:
		ns = append(ns, named{"definition", d.Name})
	case syntax.DLemma:
		ns = append(ns, named{"lemma", d.Name})
	}
	for _, n := range ns {
		if prev, dup := c.names[n.name]; dup {
			return fmt.Errorf("%s %s at %s.v:%d redeclares %s %s at %s.v:%d",
				n.kind, n.name, file, sd.Line, prev.kind, n.name, prev.file, prev.line)
		}
		c.names[n.name] = declSite{kind: n.kind, file: file, line: sd.Line}
	}
	return nil
}

// loadDecl resolves one declaration into the environment and returns its
// item.
func (c *Corpus) loadDecl(f SourceFile, sd syntax.SpannedDecl) (Item, error) {
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
			return Item{}, fmt.Errorf("import of unknown or later module %q", d.Module)
		}
		c.Imports[f.Name] = append(c.Imports[f.Name], d.Module)
		return Item{Kind: ItemImport, Name: d.Module, Src: sd.Src}, nil

	case syntax.DDatatype:
		if err := env.AddDatatype(d.Datatype); err != nil {
			return Item{}, err
		}
		return Item{Kind: ItemDatatype, Name: d.Datatype.Name, Src: sd.Src}, nil

	case syntax.DIndPred:
		p := &kernel.IndPred{Name: d.Name, Arity: len(d.ArgTypes), ArgTypes: d.ArgTypes}
		// Register before resolving rules so recursive occurrences resolve.
		if err := env.AddPred(p); err != nil {
			return Item{}, err
		}
		tparams := map[string]bool{}
		for _, tp := range d.TypeParams {
			tparams[tp] = true
		}
		for _, raw := range d.Rules {
			rule, err := resolveRule(env, p, raw, tparams)
			if err != nil {
				return Item{}, fmt.Errorf("rule %s of %s: %w", raw.Name, d.Name, err)
			}
			p.Rules = append(p.Rules, *rule)
		}
		return Item{Kind: ItemPred, Name: d.Name, Src: sd.Src}, nil

	case syntax.DFun:
		fd := &kernel.FunDef{
			Name:      d.Name,
			Params:    d.Params,
			RetType:   d.RetType,
			Body:      nil,
			Recursive: d.Recursive,
		}
		if err := env.AddFun(fd); err != nil {
			return Item{}, err
		}
		bound := map[string]bool{}
		for _, p := range d.Params {
			bound[p.Name] = true
		}
		body, err := syntax.ResolveTerm(env, d.Body, bound)
		if err != nil {
			return Item{}, fmt.Errorf("function %s: %w", d.Name, err)
		}
		if err := checkTermNames(env, body); err != nil {
			return Item{}, fmt.Errorf("function %s: %w", d.Name, err)
		}
		fd.Body = body
		return Item{Kind: ItemFun, Name: d.Name, Src: sd.Src}, nil

	case syntax.DPredDef:
		bound := map[string]bool{}
		for _, p := range d.Params {
			bound[p.Name] = true
		}
		body, err := syntax.ResolveForm(env, d.Body, bound)
		if err != nil {
			return Item{}, fmt.Errorf("definition %s: %w", d.Name, err)
		}
		if err := env.AddDef(&kernel.PredDef{Name: d.Name, Params: d.Params, Body: body}); err != nil {
			return Item{}, err
		}
		return Item{Kind: ItemDef, Name: d.Name, Src: sd.Src}, nil

	case syntax.DLemma:
		stmt, err := syntax.ResolveForm(env, d.Stmt, map[string]bool{})
		if err != nil {
			return Item{}, fmt.Errorf("lemma %s: %w", d.Name, err)
		}
		if free := stmt.FreeVars(); len(free) > 0 {
			return Item{}, fmt.Errorf("lemma %s: unbound identifiers %v", d.Name, keys(free))
		}
		if err := tactic.CheckProof(env, stmt, d.Proof); err != nil {
			return Item{}, fmt.Errorf("lemma %s: human proof fails: %w", d.Name, err)
		}
		if err := env.AddLemma(&kernel.Lemma{Name: d.Name, Stmt: stmt}); err != nil {
			return Item{}, err
		}
		stmtSrc := sd.Src
		if i := strings.Index(stmtSrc, "Proof."); i >= 0 {
			stmtSrc = strings.TrimSpace(stmtSrc[:i])
		}
		th := &Theorem{
			Name:     d.Name,
			File:     f.Name,
			Category: f.Category,
			Index:    len(c.Items[f.Name]),
			Stmt:     stmt,
			Proof:    d.Proof,
		}
		c.Theorems = append(c.Theorems, th)
		c.byName[d.Name] = th
		return Item{Kind: ItemLemma, Name: d.Name, Src: sd.Src, StmtSrc: stmtSrc, Stmt: stmt, Proof: d.Proof}, nil

	case syntax.DHint:
		var names []string
		if d.Constructors {
			for _, pname := range d.Names {
				p, ok := env.Preds[pname]
				if !ok {
					return Item{}, fmt.Errorf("Hint Constructors: unknown predicate %q", pname)
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
				return Item{}, fmt.Errorf("Hint Resolve: unknown lemma %q", n)
			}
		}
		for _, n := range names {
			env.AddHint(n)
		}
		return Item{Kind: ItemHint, Name: strings.Join(d.Names, " "), Src: sd.Src}, nil
	}
	return Item{}, fmt.Errorf("unsupported declaration %T", sd.Decl)
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
