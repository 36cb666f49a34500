// Package sexp implements the S-expression surface format used by the
// proof-checker wire protocol. It stands in for the serialization layer that
// SerAPI provides on top of Coq: a small, total reader/printer for atoms,
// strings, and nested lists.
//
// The grammar is deliberately close to SerAPI's:
//
//	sexp   := atom | string | '(' sexp* ')'
//	atom   := [^()"\s]+
//	string := '"' (escaped chars) '"'
//
// Atoms are kept as raw strings; numbers are atoms whose text parses as an
// integer. Strings preserve arbitrary bytes via backslash escapes. Lists
// nest at most maxDepth deep; deeper input is a parse error, so a hostile
// line cannot grow the parser's stack without bound.
package sexp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth bounds list nesting. The wire protocol's deepest message nests
// three lists deep.
const maxDepth = 64

// errTooDeep is returned for input nesting deeper than maxDepth. It is a
// sentinel so that rejecting deep input allocates nothing.
var errTooDeep = errors.New("sexp: lists nest deeper than 64")

// Node is an S-expression node: either an atom/string leaf or a list.
type Node struct {
	// IsList reports whether the node is a list; when false the node is a
	// leaf and Atom holds its text.
	IsList bool
	// Atom is the leaf text. For Str leaves it holds the decoded contents.
	Atom string
	// Str marks a leaf that was written as a quoted string and must be
	// re-quoted when printed.
	Str bool
	// List holds child nodes when IsList is true.
	List []*Node
}

// Sym returns an atom leaf.
func Sym(s string) *Node { return &Node{Atom: s} }

// Str returns a quoted-string leaf.
func Str(s string) *Node { return &Node{Atom: s, Str: true} }

// Int returns an integer atom leaf.
func Int(i int) *Node { return &Node{Atom: strconv.Itoa(i)} }

// L builds a list node from its children.
func L(children ...*Node) *Node { return &Node{IsList: true, List: children} }

// IsSym reports whether n is the atom s.
func (n *Node) IsSym(s string) bool { return n != nil && !n.IsList && !n.Str && n.Atom == s }

// Head returns the first child's atom text if n is a non-empty list whose
// head is an atom, else "".
func (n *Node) Head() string {
	if n == nil || !n.IsList || len(n.List) == 0 || n.List[0].IsList {
		return ""
	}
	return n.List[0].Atom
}

// Nth returns the i-th child of a list node, or nil when out of range.
func (n *Node) Nth(i int) *Node {
	if n == nil || !n.IsList || i < 0 || i >= len(n.List) {
		return nil
	}
	return n.List[i]
}

// AsInt parses the node as an integer atom.
func (n *Node) AsInt() (int, error) {
	if n == nil || n.IsList {
		return 0, fmt.Errorf("sexp: not an integer atom")
	}
	return strconv.Atoi(n.Atom)
}

// String renders the node back to S-expression text.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch {
	case n == nil:
		b.WriteString("()")
	case n.IsList:
		b.WriteByte('(')
		for i, c := range n.List {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.write(b)
		}
		b.WriteByte(')')
	case n.Str:
		b.WriteString(strconv.Quote(n.Atom))
	default:
		b.WriteString(n.Atom)
	}
}

// Parse reads a single S-expression from the input, returning the node and
// the number of bytes consumed.
func Parse(input string) (*Node, int, error) {
	p := &parser{src: input}
	p.skipSpace()
	n, err := p.parseNode()
	if err != nil {
		return nil, p.pos, err
	}
	return n, p.pos, nil
}

// ParseAll reads every S-expression in the input.
func ParseAll(input string) ([]*Node, error) {
	var out []*Node
	p := &parser{src: input}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return out, nil
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
}

type parser struct {
	src   string
	pos   int
	depth int // lists open at pos
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == ';' { // comment to end of line
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

func (p *parser) parseNode() (*Node, error) {
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("sexp: unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '(':
		if p.depth == maxDepth {
			return nil, errTooDeep
		}
		p.depth++
		p.pos++
		n := &Node{IsList: true}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("sexp: unterminated list")
			}
			if p.src[p.pos] == ')' {
				p.pos++
				p.depth--
				return n, nil
			}
			child, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.List = append(n.List, child)
		}
	case c == ')':
		return nil, fmt.Errorf("sexp: unexpected ')' at offset %d", p.pos)
	case c == '"':
		return p.parseString()
	default:
		return p.parseAtom()
	}
}

func (p *parser) parseString() (*Node, error) {
	start := p.pos
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return &Node{Atom: b.String(), Str: true}, nil
		case '\\':
			// Delegate escape decoding to strconv by finding the end of the
			// quoted literal and unquoting it wholesale. Simpler: handle the
			// escapes we emit (strconv.Quote output).
			p.pos++
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("sexp: unterminated escape in string at offset %d", start)
			}
			e := p.src[p.pos]
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'a':
				b.WriteByte('\a')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'v':
				b.WriteByte('\v')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'x':
				if p.pos+2 >= len(p.src) {
					return nil, fmt.Errorf("sexp: bad \\x escape at offset %d", p.pos)
				}
				v, err := strconv.ParseUint(p.src[p.pos+1:p.pos+3], 16, 8)
				if err != nil {
					return nil, fmt.Errorf("sexp: bad \\x escape at offset %d: %v", p.pos, err)
				}
				b.WriteByte(byte(v))
				p.pos += 2
			case 'u':
				if p.pos+4 >= len(p.src) {
					return nil, fmt.Errorf("sexp: bad \\u escape at offset %d", p.pos)
				}
				v, err := strconv.ParseUint(p.src[p.pos+1:p.pos+5], 16, 32)
				if err != nil {
					return nil, fmt.Errorf("sexp: bad \\u escape at offset %d: %v", p.pos, err)
				}
				b.WriteRune(rune(v))
				p.pos += 4
			case 'U':
				if p.pos+8 >= len(p.src) {
					return nil, fmt.Errorf("sexp: bad \\U escape at offset %d", p.pos)
				}
				v, err := strconv.ParseUint(p.src[p.pos+1:p.pos+9], 16, 32)
				if err != nil || v > 0x10FFFF {
					return nil, fmt.Errorf("sexp: bad \\U escape at offset %d", p.pos)
				}
				b.WriteRune(rune(v))
				p.pos += 8
			default:
				return nil, fmt.Errorf("sexp: unknown escape \\%c at offset %d", e, p.pos)
			}
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return nil, fmt.Errorf("sexp: unterminated string at offset %d", start)
}

func (p *parser) parseAtom() (*Node, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' || c == ')' || c == '"' || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("sexp: empty atom at offset %d", start)
	}
	return &Node{Atom: p.src[start:p.pos]}, nil
}
