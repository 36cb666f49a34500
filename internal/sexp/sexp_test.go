package sexp

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	n, _, err := Parse(`(Exec "intros." (Goals 2))`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Head() != "Exec" {
		t.Fatalf("head %q", n.Head())
	}
	if n.Nth(1).Atom != "intros." || !n.Nth(1).Str {
		t.Fatalf("string arg %+v", n.Nth(1))
	}
	if got, _ := n.Nth(2).Nth(1).AsInt(); got != 2 {
		t.Fatalf("int arg %d", got)
	}
	// Nesting up to the bound parses, and the depth count resets between
	// the top-level expressions of one input.
	if _, err := ParseAll(nested(maxDepth) + nested(maxDepth)); err != nil {
		t.Fatalf("depth %d: %v", maxDepth, err)
	}
}

// nested returns depth lists, each holding the next: "((...))".
func nested(depth int) string {
	return strings.Repeat("(", depth) + strings.Repeat(")", depth)
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"(", ")", `"unterminated`, "(a (b)", nested(maxDepth + 1)} {
		if _, _, err := Parse(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
	if _, _, err := Parse(strings.Repeat("(", 1<<20)); !errors.Is(err, errTooDeep) {
		t.Errorf("1 MiB of '(': error %v, want the nesting bound", err)
	}
}

func TestParseComments(t *testing.T) {
	ns, err := ParseAll("; comment\n(a b) ; trailing\n(c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].Head() != "a" || ns[1].Head() != "c" {
		t.Fatalf("parsed %v", ns)
	}
}

func genNode(rng *rand.Rand, depth int) *Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Sym("atom" + string(rune('a'+rng.Intn(26))))
		case 1:
			return Str("s\"tr\n" + string(rune('a'+rng.Intn(26))))
		default:
			return Int(rng.Intn(1000) - 500)
		}
	}
	n := rng.Intn(4)
	kids := make([]*Node, n)
	for i := range kids {
		kids[i] = genNode(rng, depth-1)
	}
	return L(kids...)
}

type nodeValue struct{ N *Node }

func (nodeValue) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(nodeValue{N: genNode(rng, 4)})
}

// Print-then-parse is the identity (round trip), including escapes.
func TestRoundTrip(t *testing.T) {
	f := func(v nodeValue) bool {
		parsed, _, err := Parse(v.N.String())
		if err != nil {
			return false
		}
		return parsed.String() == v.N.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscapes(t *testing.T) {
	n := Str("line1\nline2\t\"quoted\"")
	parsed, _, err := Parse(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Atom != n.Atom {
		t.Fatalf("escape round trip: %q vs %q", parsed.Atom, n.Atom)
	}
}
