package analysis

import (
	"fmt"
	"sort"

	"llmfscq/internal/kernel"
	"llmfscq/internal/syntax"
	"llmfscq/internal/tactic"
)

// VFile is one vernacular source file handed to ParseDevelopment. Name is
// the display path used in findings (e.g. "internal/corpus/data/Log.v");
// Module is the bare module name used in Require Import lines (e.g. "Log").
type VFile struct {
	Name   string
	Module string
	Src    string
}

// Symbol is one globally declared name of the development.
type Symbol struct {
	Name string
	Kind string // datatype | constructor | fun | def | pred | rule | lemma
	File string // display path of the declaring file
	Line int
}

// DevDecl is one declaration with the global names it references.
type DevDecl struct {
	Kind string
	Name string
	File string
	Line int
	// Refs are the referenced global symbol names (sorted, deduplicated,
	// restricted to names present in the symbol table).
	Refs []string
}

// DevLemma is one lemma with its parsed proof script.
type DevLemma struct {
	Name string
	File string
	Line int
	Stmt *kernel.Form // raw (unresolved) statement, as parsed
	// Script is the parsed proof; nil when the script failed to parse, in
	// which case ScriptErr holds the error (analyzers skip such lemmas —
	// the corpus loader is the authority on script validity).
	Script    []tactic.Expr
	ScriptErr error
}

// DevFile is one parsed file of the development.
type DevFile struct {
	Name    string // display path
	Module  string
	Imports []string // imported module names, as written
	Decls   []DevDecl
}

// Development is the parsed vernacular development the corpus analyzers run
// over.
type Development struct {
	Files   []*DevFile
	Symbols map[string]*Symbol
	Lemmas  []*DevLemma

	moduleFile map[string]string // module name -> display path
}

// ParseDevelopment parses the files (in order) into the analysis model.
// A parse failure in any file is an error: the analyzers require a
// well-formed corpus (the loader's tests guarantee it for the embedded one).
func ParseDevelopment(files []VFile) (*Development, error) {
	dev := &Development{
		Symbols:    map[string]*Symbol{},
		moduleFile: map[string]string{},
	}
	// Pass 1: parse every file, collect declarations and the symbol table.
	type parsedFile struct {
		vf    VFile
		decls []syntax.SpannedDecl
	}
	var parsed []parsedFile
	for _, vf := range files {
		vp, err := syntax.NewVernParser(vf.Src)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", vf.Name, err)
		}
		decls, err := vp.ParseFileSpans()
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", vf.Name, err)
		}
		parsed = append(parsed, parsedFile{vf: vf, decls: decls})
		dev.moduleFile[vf.Module] = vf.Name
		for _, sd := range decls {
			dev.declareSymbols(vf.Name, sd)
		}
	}
	// Pass 2: resolve references against the complete symbol table.
	for _, pf := range parsed {
		df := &DevFile{Name: pf.vf.Name, Module: pf.vf.Module}
		for _, sd := range pf.decls {
			df.Decls = append(df.Decls, dev.buildDecl(pf.vf.Name, sd))
			if imp, ok := sd.Decl.(syntax.DImport); ok {
				df.Imports = append(df.Imports, imp.Module)
			}
		}
		dev.Files = append(dev.Files, df)
	}
	return dev, nil
}

func (dev *Development) declareSymbols(file string, sd syntax.SpannedDecl) {
	put := func(name, kind string) {
		if _, dup := dev.Symbols[name]; dup {
			return // the loader rejects duplicates; first wins here
		}
		dev.Symbols[name] = &Symbol{Name: name, Kind: kind, File: file, Line: sd.Line}
	}
	switch d := sd.Decl.(type) {
	case syntax.DDatatype:
		put(d.Datatype.Name, "datatype")
		for _, c := range d.Datatype.Constructors {
			put(c.Name, "constructor")
		}
	case syntax.DIndPred:
		put(d.Name, "pred")
		for _, r := range d.Rules {
			put(r.Name, "rule")
		}
	case syntax.DFun:
		put(d.Name, "fun")
	case syntax.DPredDef:
		put(d.Name, "def")
	case syntax.DLemma:
		put(d.Name, "lemma")
	}
}

func (dev *Development) buildDecl(file string, sd syntax.SpannedDecl) DevDecl {
	refs := newRefSet(dev.Symbols)
	decl := DevDecl{File: file, Line: sd.Line}
	switch d := sd.Decl.(type) {
	case syntax.DImport:
		decl.Kind, decl.Name = "import", d.Module
	case syntax.DDatatype:
		decl.Kind, decl.Name = "datatype", d.Datatype.Name
		for _, c := range d.Datatype.Constructors {
			for _, ty := range c.ArgTypes {
				refs.addType(ty)
			}
		}
	case syntax.DIndPred:
		decl.Kind, decl.Name = "pred", d.Name
		for _, ty := range d.ArgTypes {
			refs.addType(ty)
		}
		for _, r := range d.Rules {
			refs.addForm(r.Form)
		}
	case syntax.DFun:
		decl.Kind, decl.Name = "fun", d.Name
		for _, p := range d.Params {
			refs.addType(p.Type)
		}
		refs.addType(d.RetType)
		refs.addTerm(d.Body)
	case syntax.DPredDef:
		decl.Kind, decl.Name = "def", d.Name
		for _, p := range d.Params {
			refs.addType(p.Type)
		}
		refs.addForm(d.Body)
	case syntax.DHint:
		decl.Kind, decl.Name = "hint", "Hint"
		for _, n := range d.Names {
			refs.addName(n)
		}
	case syntax.DLemma:
		decl.Kind, decl.Name = "lemma", d.Name
		lem := &DevLemma{Name: d.Name, File: file, Line: sd.Line, Stmt: d.Stmt}
		refs.addForm(d.Stmt)
		script, err := tactic.ParseScript(d.Proof)
		if err != nil {
			lem.ScriptErr = err
		} else {
			lem.Script = script
			for _, e := range script {
				refs.addExpr(e)
			}
		}
		dev.Lemmas = append(dev.Lemmas, lem)
	}
	decl.Refs = refs.sorted()
	return decl
}

// ImportClosure returns the set of module names transitively imported by
// the given file (by display path), excluding the file itself.
func (dev *Development) ImportClosure(file string) map[string]bool {
	byName := map[string]*DevFile{}
	for _, f := range dev.Files {
		byName[f.Name] = f
	}
	out := map[string]bool{}
	var visit func(f *DevFile)
	visit = func(f *DevFile) {
		for _, mod := range f.Imports {
			if out[mod] {
				continue
			}
			out[mod] = true
			if imp, ok := byName[dev.moduleFile[mod]]; ok {
				visit(imp)
			}
		}
	}
	if f, ok := byName[file]; ok {
		visit(f)
	}
	return out
}

// ---------------------------------------------------------------------------
// Reference extraction

// refSet accumulates identifier references, keeping only names that exist
// in the global symbol table (binder and hypothesis names fall out).
type refSet struct {
	symbols map[string]*Symbol
	set     map[string]bool
}

func newRefSet(symbols map[string]*Symbol) *refSet {
	return &refSet{symbols: symbols, set: map[string]bool{}}
}

func (r *refSet) addName(n string) {
	if _, ok := r.symbols[n]; ok {
		r.set[n] = true
	}
}

func (r *refSet) sorted() []string {
	out := make([]string, 0, len(r.set))
	for n := range r.set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (r *refSet) addType(t *kernel.Type) {
	if t == nil || t.TVar {
		return
	}
	switch t.Name {
	case "->", "Prop", "Type":
	default:
		r.addName(t.Name)
	}
	for _, a := range t.Args {
		r.addType(a)
	}
}

func (r *refSet) addTerm(t *kernel.Term) {
	if t == nil {
		return
	}
	switch {
	case t.IsVar():
		r.addName(t.Var)
	case t.Match != nil:
		r.addTerm(t.Match.Scrut)
		for _, c := range t.Match.Cases {
			r.addTerm(c.Pat)
			r.addTerm(c.RHS)
		}
	default:
		r.addName(t.Fun)
		for _, a := range t.Args {
			r.addTerm(a)
		}
	}
}

func (r *refSet) addForm(f *kernel.Form) {
	if f == nil {
		return
	}
	switch f.Kind {
	case kernel.FEq:
		r.addTerm(f.T1)
		r.addTerm(f.T2)
	case kernel.FPred:
		r.addName(f.Pred)
		for _, a := range f.Args {
			r.addTerm(a)
		}
	case kernel.FForall, kernel.FExists:
		r.addType(f.BType)
		r.addForm(f.Body)
	default:
		r.addForm(f.L)
		r.addForm(f.R)
	}
}

// addExpr collects references from a tactic expression: identifier
// arguments that name global symbols (apply/rewrite/unfold/exact targets,
// hint names) and globals mentioned inside term or formula arguments.
func (r *refSet) addExpr(e tactic.Expr) {
	switch t := e.(type) {
	case tactic.Seq:
		r.addExpr(t.First)
		r.addExpr(t.Then)
	case tactic.Dispatch:
		r.addExpr(t.First)
		for _, b := range t.Branches {
			if b != nil {
				r.addExpr(b)
			}
		}
	case tactic.Alt:
		r.addExpr(t.A)
		r.addExpr(t.B)
	case tactic.Try:
		r.addExpr(t.T)
	case tactic.Repeat:
		r.addExpr(t.T)
	case tactic.Call:
		for _, id := range t.Idents {
			r.addName(id)
		}
		for _, tm := range t.Terms {
			r.addTerm(tm)
		}
		for _, f := range t.Forms {
			r.addForm(f)
		}
	}
}
