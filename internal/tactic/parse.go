package tactic

import (
	"fmt"
	"strconv"
	"strings"

	"llmfscq/internal/kernel"
	"llmfscq/internal/syntax"
)

// Expr is a tactic expression: an atomic tactic call or a combinator.
type Expr interface{ exprNode() }

// Seq is `t1; t2`: run t1, then t2 on every produced subgoal.
type Seq struct{ First, Then Expr }

// Dispatch is `t; [t1 | ... | tn]`: run t, then ti on the i-th produced
// subgoal (the count must match).
type Dispatch struct {
	First    Expr
	Branches []Expr
}

// Alt is `t1 || t2`: run t1; if it fails, run t2.
type Alt struct{ A, B Expr }

// Try is `try t`: run t, ignore failure.
type Try struct{ T Expr }

// Repeat is `repeat t`: run t until it fails or stops progressing.
type Repeat struct{ T Expr }

// Call is an atomic tactic invocation.
type Call struct {
	Name string
	// Idents are identifier arguments (lemma/hyp/var names).
	Idents []string
	// Terms are term arguments (for exists, with, a parenthesized
	// destruct target, ...).
	Terms []*kernel.Term
	// Forms are formula arguments (for assert).
	Forms []*kernel.Form
	// Num is a numeric argument (auto depth), -1 when absent.
	Num int
	// EqnName is the hypothesis name from an `eqn:H` clause.
	EqnName string
	// Rev marks `rewrite <-`.
	Rev bool
	// InHyp is the target of an `in H` clause ("" = conclusion, "*" = all).
	InHyp string
	// Pattern is a destruct/intro pattern for `as [...]`.
	Pattern *IntroPattern
}

func (Seq) exprNode()      {}
func (Dispatch) exprNode() {}
func (Alt) exprNode()      {}
func (Try) exprNode()      {}
func (Repeat) exprNode()   {}
func (Call) exprNode()     {}

// IntroPattern is a (possibly nested) destructuring pattern:
// `[a b]` for conjunctions/existentials, `[a | b]` for disjunctions.
type IntroPattern struct {
	// Name is set for a leaf pattern.
	Name string
	// Alts holds |-separated alternatives; each alternative is a sequence
	// of sub-patterns.
	Alts [][]*IntroPattern
}

// String renders the tactic expression back to script text.
func ExprString(e Expr) string {
	switch t := e.(type) {
	case Seq:
		return ExprString(t.First) + "; " + ExprString(t.Then)
	case Dispatch:
		parts := make([]string, len(t.Branches))
		for i, b := range t.Branches {
			if b != nil {
				parts[i] = ExprString(b)
			}
		}
		return ExprString(t.First) + "; [ " + strings.Join(parts, " | ") + " ]"
	case Alt:
		return ExprString(t.A) + " || " + ExprString(t.B)
	case Try:
		return "try " + ExprString(t.T)
	case Repeat:
		return "repeat " + ExprString(t.T)
	case Call:
		s := t.Name
		if t.Rev {
			s += " <-"
		}
		for _, id := range t.Idents {
			s += " " + id
		}
		for _, tm := range t.Terms {
			s += " (" + tm.String() + ")"
		}
		for _, f := range t.Forms {
			s += " (" + f.String() + ")"
		}
		if t.Num >= 0 {
			s += " " + strconv.Itoa(t.Num)
		}
		if t.Pattern != nil {
			s += " as " + t.Pattern.String()
		}
		if t.InHyp != "" {
			s += " in " + t.InHyp
		}
		return s
	}
	return "?"
}

func (p *IntroPattern) String() string {
	if p == nil {
		return "?"
	}
	if p.Name != "" {
		return p.Name
	}
	s := "["
	for i, alt := range p.Alts {
		if i > 0 {
			s += " | "
		}
		for j, sub := range alt {
			if j > 0 {
				s += " "
			}
			s += sub.String()
		}
	}
	return s + "]"
}

// ParseScript splits a tactic script into sentences (terminated by `.`) and
// parses each into an Expr.
func ParseScript(src string) ([]Expr, error) {
	toks, err := syntax.Lex(src)
	if err != nil {
		return nil, err
	}
	var out []Expr
	p := &tparser{toks: toks}
	for !p.atEOF() {
		// Skip Coq bullets and braces, which only organise subgoals.
		for p.eatSym("-") || p.eatSym("+") || p.eatSym("*") || p.eatSym("{") || p.eatSym("}") {
		}
		if p.atEOF() {
			break
		}
		e, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("."); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ParseOne parses a single tactic sentence (without the trailing period,
// which is optional).
func ParseOne(src string) (Expr, error) {
	toks, err := syntax.Lex(src)
	if err != nil {
		return nil, err
	}
	p := &tparser{toks: toks}
	e, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	p.eatSym(".")
	if !p.atEOF() {
		return nil, fmt.Errorf("tactic: trailing input after tactic: %q", src)
	}
	return e, nil
}

type tparser struct {
	toks []syntax.Tok
	pos  int
}

func (p *tparser) cur() syntax.Tok { return p.toks[p.pos] }
func (p *tparser) atEOF() bool     { return p.cur().Kind == syntax.TEOF }

func (p *tparser) eatSym(s string) bool {
	if t := p.cur(); t.Kind == syntax.TSym && t.Text == s {
		p.pos++
		return true
	}
	return false
}

func (p *tparser) eatIdent(s string) bool {
	if t := p.cur(); t.Kind == syntax.TIdent && t.Text == s {
		p.pos++
		return true
	}
	return false
}

func (p *tparser) expectSym(s string) error {
	if !p.eatSym(s) {
		return fmt.Errorf("tactic: line %d: expected %q, found %q", p.cur().Line, s, p.cur().Text)
	}
	return nil
}

// parseSeq: alt (';' seq)?  — right-nested, semantics are associative.
func (p *tparser) parseSeq() (Expr, error) {
	left, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.eatSym(";") {
		if p.eatSym("[") {
			// Dispatch: t; [ t1 | t2 | ... ]
			var branches []Expr
			cur := Expr(nil)
			for {
				switch {
				case p.eatSym("]"):
					branches = append(branches, cur)
					d := Dispatch{First: left, Branches: branches}
					// A dispatch may itself be followed by `; t`.
					if p.eatSym(";") {
						right, err := p.parseSeq()
						if err != nil {
							return nil, err
						}
						return Seq{First: d, Then: right}, nil
					}
					return d, nil
				case p.eatSym("|"):
					branches = append(branches, cur)
					cur = nil
				default:
					e, err := p.parseSeq()
					if err != nil {
						return nil, err
					}
					cur = e
				}
			}
		}
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		return Seq{First: left, Then: right}, nil
	}
	return left, nil
}

func (p *tparser) parseAlt() (Expr, error) {
	left, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	if p.eatSym("||") {
		right, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		return Alt{A: left, B: right}, nil
	}
	return left, nil
}

func (p *tparser) parsePrefix() (Expr, error) {
	switch {
	case p.eatIdent("try"):
		inner, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		return Try{T: inner}, nil
	case p.eatIdent("repeat"):
		inner, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		return Repeat{T: inner}, nil
	case p.eatSym("("):
		inner, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return p.parseCall()
	}
}

// tactics that accept identifier arguments.
func (p *tparser) parseCall() (Expr, error) {
	t := p.cur()
	if t.Kind != syntax.TIdent {
		return nil, fmt.Errorf("tactic: line %d: expected tactic name, found %q", t.Line, t.Text)
	}
	name := t.Text
	p.pos++
	call := Call{Name: name, Num: -1}

	if name == "assert" {
		// assert (form) [as H]
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		f, err := p.subFormParser().ParseForm()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		call.Forms = append(call.Forms, f)
		if p.eatIdent("as") {
			id, err := p.ident()
			if err != nil {
				return nil, err
			}
			call.Idents = append(call.Idents, id)
		}
		return call, nil
	}

	if name == "rewrite" {
		if p.eatSym("<-") {
			call.Rev = true
		}
	}

	if name == "exists" {
		// exists t1, t2, ...
		for {
			tm, err := p.parseTermArg()
			if err != nil {
				return nil, err
			}
			call.Terms = append(call.Terms, tm)
			if !p.eatSym(",") {
				break
			}
		}
		return call, nil
	}

	// Generic argument loop: identifiers, numbers, `as` patterns, `in H`,
	// comma-separated rewrite targets.
	for {
		tok := p.cur()
		switch {
		case tok.Kind == syntax.TIdent && tok.Text == "as":
			p.pos++
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			call.Pattern = pat
			continue
		case tok.Kind == syntax.TIdent && tok.Text == "eqn":
			p.pos++
			if err := p.expectSym(":"); err != nil {
				return nil, err
			}
			id, err := p.ident()
			if err != nil {
				return nil, err
			}
			call.EqnName = id
			continue
		case tok.Kind == syntax.TIdent && tok.Text == "with":
			// `with a b (f x)`: each instantiation is an atom (identifier,
			// number, or parenthesized term) so that juxtaposition is a
			// list of arguments, not one application.
			p.pos++
			got := 0
			for {
				t := p.cur()
				switch {
				case t.Kind == syntax.TIdent && !isScriptKeyword(t.Text) && t.Text != "eqn":
					p.pos++
					call.Terms = append(call.Terms, kernel.V(t.Text))
					got++
					continue
				case t.Kind == syntax.TNumber:
					p.pos++
					n, err := strconv.Atoi(t.Text)
					if err != nil {
						return nil, fmt.Errorf("tactic: bad number %q", t.Text)
					}
					call.Terms = append(call.Terms, kernel.NatLit(n))
					got++
					continue
				case t.Kind == syntax.TSym && t.Text == "(":
					p.pos++
					tm, err := p.parseTermArg()
					if err != nil {
						return nil, err
					}
					if err := p.expectSym(")"); err != nil {
						return nil, err
					}
					call.Terms = append(call.Terms, tm)
					got++
					continue
				}
				break
			}
			if got == 0 {
				return nil, fmt.Errorf("tactic: 'with' expects at least one term")
			}
			continue
		case tok.Kind == syntax.TIdent && tok.Text == "in":
			p.pos++
			if p.eatSym("*") {
				call.InHyp = "*"
				continue
			}
			id, err := p.ident()
			if err != nil {
				return nil, err
			}
			call.InHyp = id
			continue
		case tok.Kind == syntax.TIdent && !isScriptKeyword(tok.Text):
			p.pos++
			call.Idents = append(call.Idents, tok.Text)
			continue
		case tok.Kind == syntax.TNumber:
			p.pos++
			n, err := strconv.Atoi(tok.Text)
			if err != nil {
				return nil, fmt.Errorf("tactic: bad number %q", tok.Text)
			}
			call.Num = n
			continue
		case tok.Kind == syntax.TSym && tok.Text == ",":
			// `rewrite A, B` sugar: expand to a sequence of rewrites later;
			// keep collecting identifiers.
			p.pos++
			continue
		case tok.Kind == syntax.TSym && tok.Text == "(":
			// Parenthesized term argument (e.g. `destruct (eqb a n)`),
			// parsed as a closed unit so a following clause like `eqn:H` is
			// not swallowed as an application argument.
			p.pos++
			tm, err := p.parseTermArg()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			call.Terms = append(call.Terms, tm)
			continue
		}
		break
	}
	return call, nil
}

func isScriptKeyword(s string) bool {
	switch s {
	case "as", "in", "try", "repeat", "with", "using", "at":
		return true
	}
	return false
}

func (p *tparser) ident() (string, error) {
	t := p.cur()
	if t.Kind != syntax.TIdent {
		return "", fmt.Errorf("tactic: line %d: expected identifier, found %q", t.Line, t.Text)
	}
	p.pos++
	return t.Text, nil
}

// subFormParser hands the remaining tokens to the syntax parser and keeps
// positions in sync.
func (p *tparser) subFormParser() *syncParser {
	return &syncParser{Parser: syntax.NewParser(p.toks[p.pos:]), t: p}
}

type syncParser struct {
	*syntax.Parser
	t *tparser
}

func (sp *syncParser) ParseForm() (*kernel.Form, error) {
	f, err := sp.Parser.ParseForm()
	sp.t.pos += sp.Parser.Consumed()
	return f, err
}

func (p *tparser) parseTermArg() (*kernel.Term, error) {
	sub := syntax.NewParser(p.toks[p.pos:])
	tm, err := sub.ParseTerm()
	if err != nil {
		return nil, err
	}
	p.pos += sub.Consumed()
	return tm, nil
}

// parsePattern parses an intro pattern: ident or `[alt | alt]` with
// space-separated sub-patterns inside alternatives.
func (p *tparser) parsePattern() (*IntroPattern, error) {
	t := p.cur()
	if t.Kind == syntax.TIdent {
		p.pos++
		return &IntroPattern{Name: t.Text}, nil
	}
	if !p.eatSym("[") {
		return nil, fmt.Errorf("tactic: line %d: expected intro pattern", t.Line)
	}
	pat := &IntroPattern{Alts: [][]*IntroPattern{nil}}
	cur := 0
	for {
		switch {
		case p.eatSym("]"):
			return pat, nil
		case p.eatSym("|"):
			pat.Alts = append(pat.Alts, nil)
			cur++
		default:
			sub, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			pat.Alts[cur] = append(pat.Alts[cur], sub)
		}
	}
}
