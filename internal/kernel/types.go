package kernel

import (
	"fmt"
	"strings"
)

// Type is a simple first-order type expression: a named type constructor
// applied to argument types, or a type variable.
type Type struct {
	Name string
	Args []*Type
	// TVar marks a type variable (bound by a `forall (A : Type)` binder).
	TVar bool

	// Structural hash; see intern.go.
	hash, hash2 uint64
}

// Ty builds an applied type.
func Ty(name string, args ...*Type) *Type { return mkType(name, args, false) }

// TyVar builds a type variable.
func TyVar(name string) *Type { return mkType(name, nil, true) }

// TypeType is the sort of types themselves (the binder type of
// `forall (A : Type), ...`).
var TypeType = Ty("Type")

// PropType is the sort of propositions.
var PropType = Ty("Prop")

// IsType reports whether ty is the sort Type.
func (ty *Type) IsType() bool { return ty != nil && !ty.TVar && ty.Name == "Type" && len(ty.Args) == 0 }

func (ty *Type) String() string {
	if ty == nil {
		return "<nil>"
	}
	if len(ty.Args) == 0 {
		return ty.Name
	}
	parts := make([]string, 0, len(ty.Args)+1)
	parts = append(parts, ty.Name)
	for _, a := range ty.Args {
		s := a.String()
		if len(a.Args) > 0 {
			s = "(" + s + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// Equal reports structural equality of types. Every type is interned, so
// structurally equal types are one pointer.
func (ty *Type) Equal(other *Type) bool { return ty == other }

// SubstTypes substitutes type variables in ty.
func (ty *Type) SubstTypes(s map[string]*Type) *Type {
	if ty == nil {
		return nil
	}
	if ty.TVar {
		if r, ok := s[ty.Name]; ok {
			return r
		}
		return ty
	}
	if len(ty.Args) == 0 {
		return ty
	}
	args := make([]*Type, len(ty.Args))
	for i, a := range ty.Args {
		args[i] = a.SubstTypes(s)
	}
	return mkType(ty.Name, args, false)
}

// TypedVar is a variable with its declared type.
type TypedVar struct {
	Name string
	Type *Type
}

// Constructor is one constructor of an inductive datatype.
type Constructor struct {
	Name string
	// ArgTypes are the argument types; occurrences of the datatype itself
	// mark recursive positions.
	ArgTypes []*Type
}

// Datatype is an inductive type declaration.
type Datatype struct {
	Name         string
	Params       []string // type parameter names, e.g. ["A"] for list
	Constructors []Constructor
}

// FunDef is a (possibly recursive) function definition: a parameter list and
// a body term, Gallina-style. Recursion is by self-reference in the body;
// evaluation is fuel-bounded, so non-termination is impossible at runtime.
type FunDef struct {
	Name    string
	Params  []TypedVar // term parameters (type parameters are erased)
	RetType *Type
	Body    *Term
	// Recursive marks Fixpoints (affects simpl's unfold heuristic only in
	// that non-recursive, match-free definitions always unfold).
	Recursive bool
}

// Rule is one introduction rule of an inductive predicate, of the form
// forall Vars, Prems -> PredName(ConclArgs).
type Rule struct {
	Name      string
	PredName  string // owning predicate
	Vars      []TypedVar
	Prems     []*Form
	ConclArgs []*Term
}

// Statement renders the rule as a closed, quantified formula.
func (r *Rule) Statement() *Form {
	f := ImplChain(r.Prems, Pred(r.PredName, r.ConclArgs...))
	for i := len(r.Vars) - 1; i >= 0; i-- {
		f = Forall(r.Vars[i].Name, r.Vars[i].Type, f)
	}
	return f
}

// IndPred is an inductively defined predicate (like Coq's Inductive ... : Prop).
type IndPred struct {
	Name  string
	Arity int
	// ArgTypes of the predicate's indices, used for typing fresh variables
	// introduced by inversion.
	ArgTypes []*Type
	Rules    []Rule
}

// PredDef is an unfoldable predicate definition (Definition ... : Prop).
type PredDef struct {
	Name   string
	Params []TypedVar
	Body   *Form
}

// Lemma is a proved (or assumed) statement that tactics may use.
type Lemma struct {
	Name string
	Stmt *Form
}

// Env is the global environment: every declaration visible to the prover.
// Environments are extended functionally during corpus loading; the tactic
// layer treats them as immutable.
type Env struct {
	Datatypes map[string]*Datatype
	// ConstrData maps a constructor name to its datatype.
	ConstrData map[string]*Datatype
	Funs       map[string]*FunDef
	Preds      map[string]*IndPred
	Defs       map[string]*PredDef
	Lemmas     map[string]*Lemma
	// LemmaOrder preserves declaration order (context building relies on it).
	LemmaOrder []string
	// Hints is the auto/eauto hint database: lemma and rule names.
	Hints map[string]bool
	// HintOrder preserves hint insertion order for deterministic search.
	HintOrder []string
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		Datatypes:  map[string]*Datatype{},
		ConstrData: map[string]*Datatype{},
		Funs:       map[string]*FunDef{},
		Preds:      map[string]*IndPred{},
		Defs:       map[string]*PredDef{},
		Lemmas:     map[string]*Lemma{},
		Hints:      map[string]bool{},
	}
}

// AddDatatype registers a datatype and its constructors.
func (e *Env) AddDatatype(d *Datatype) error {
	if _, dup := e.Datatypes[d.Name]; dup {
		return fmt.Errorf("kernel: duplicate datatype %q", d.Name)
	}
	e.Datatypes[d.Name] = d
	for _, c := range d.Constructors {
		if prev, dup := e.ConstrData[c.Name]; dup {
			return fmt.Errorf("kernel: constructor %q already declared by datatype %q", c.Name, prev.Name)
		}
		e.ConstrData[c.Name] = d
	}
	return nil
}

// AddFun registers a function definition.
func (e *Env) AddFun(f *FunDef) error {
	if _, dup := e.Funs[f.Name]; dup {
		return fmt.Errorf("kernel: duplicate function %q", f.Name)
	}
	e.Funs[f.Name] = f
	return nil
}

// AddPred registers an inductive predicate; its rules are usable by
// `constructor`, `inversion`, and (once hinted) `auto`/`eauto`.
func (e *Env) AddPred(p *IndPred) error {
	if _, dup := e.Preds[p.Name]; dup {
		return fmt.Errorf("kernel: duplicate inductive predicate %q", p.Name)
	}
	e.Preds[p.Name] = p
	return nil
}

// AddDef registers an unfoldable predicate definition.
func (e *Env) AddDef(d *PredDef) error {
	if _, dup := e.Defs[d.Name]; dup {
		return fmt.Errorf("kernel: duplicate definition %q", d.Name)
	}
	e.Defs[d.Name] = d
	return nil
}

// AddLemma registers a lemma statement.
func (e *Env) AddLemma(l *Lemma) error {
	if _, dup := e.Lemmas[l.Name]; dup {
		return fmt.Errorf("kernel: duplicate lemma %q", l.Name)
	}
	e.Lemmas[l.Name] = l
	e.LemmaOrder = append(e.LemmaOrder, l.Name)
	return nil
}

// AddHint adds a name (lemma or rule) to the hint database.
func (e *Env) AddHint(name string) {
	if !e.Hints[name] {
		e.Hints[name] = true
		e.HintOrder = append(e.HintOrder, name)
	}
}

// IsConstructor reports whether name is a datatype constructor.
func (e *Env) IsConstructor(name string) bool {
	_, ok := e.ConstrData[name]
	return ok
}

// RuleNamed finds an inductive-predicate rule by name, returning the
// predicate it belongs to.
func (e *Env) RuleNamed(name string) (*IndPred, *Rule) {
	for _, p := range e.Preds {
		for i := range p.Rules {
			if p.Rules[i].Name == name {
				return p, &p.Rules[i]
			}
		}
	}
	return nil, nil
}

// Clone returns a shallow copy of the environment with fresh maps, so the
// copy can be extended without aliasing (declarations themselves are shared
// and immutable).
func (e *Env) Clone() *Env {
	out := NewEnv()
	for k, v := range e.Datatypes {
		out.Datatypes[k] = v
	}
	for k, v := range e.ConstrData {
		out.ConstrData[k] = v
	}
	for k, v := range e.Funs {
		out.Funs[k] = v
	}
	for k, v := range e.Preds {
		out.Preds[k] = v
	}
	for k, v := range e.Defs {
		out.Defs[k] = v
	}
	for k, v := range e.Lemmas {
		out.Lemmas[k] = v
	}
	out.LemmaOrder = append([]string(nil), e.LemmaOrder...)
	for k, v := range e.Hints {
		out.Hints[k] = v
	}
	out.HintOrder = append([]string(nil), e.HintOrder...)
	return out
}

// Before returns the environment as it stood just before the named lemma
// was declared: the lemma and every lemma after it are gone, from the
// lemma table and from the hint database. Hints naming inductive rules are
// never cut. A name that is not a lemma leaves a plain Clone. The checkerd
// server restricts its sessions with it, so a session cannot apply the
// lemma it is proving, and the evaluation's per-theorem environments are
// tested against it.
func (e *Env) Before(name string) *Env {
	out := e.Clone()
	cut := -1
	for i, n := range e.LemmaOrder {
		if n == name {
			cut = i
			break
		}
	}
	if cut < 0 {
		return out
	}
	removed := make(map[string]bool, len(e.LemmaOrder)-cut)
	for _, n := range e.LemmaOrder[cut:] {
		removed[n] = true
		delete(out.Lemmas, n)
	}
	out.LemmaOrder = append([]string(nil), e.LemmaOrder[:cut]...)
	hints := make([]string, 0, len(out.HintOrder))
	for _, h := range out.HintOrder {
		if removed[h] {
			delete(out.Hints, h)
			continue
		}
		hints = append(hints, h)
	}
	out.HintOrder = hints
	return out
}

// InstantiateConstructorTypes returns the constructor argument types of c
// with datatype parameters replaced by the concrete argument types of ty
// (which must be an instance of datatype d).
func InstantiateConstructorTypes(d *Datatype, c Constructor, ty *Type) []*Type {
	sub := map[string]*Type{}
	for i, p := range d.Params {
		if i < len(ty.Args) {
			sub[p] = ty.Args[i]
		}
	}
	out := make([]*Type, len(c.ArgTypes))
	for i, at := range c.ArgTypes {
		out[i] = at.SubstTypes(sub)
	}
	return out
}
