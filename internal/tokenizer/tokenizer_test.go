package tokenizer

import (
	"testing"
	"testing/quick"
)

func TestCountBasics(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"intros.", 3},      // intros (2 chunks) + .
		{"rewrite IHl.", 4}, // rewrite (2 chunks) + IHl + .
		{"a b c", 3},
		{"  \n\t ", 0},
		{"x=y", 3},
		{"abcdefghij", 2}, // 10 chars = 2 chunks
	}
	for _, c := range cases {
		if got := Count(c.in); got != c.want {
			t.Errorf("Count(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTokensMatchCount(t *testing.T) {
	f := func(s string) bool { return len(Tokens(s)) == Count(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountMonotoneUnderConcat(t *testing.T) {
	f := func(a, b string) bool {
		return Count(a+" "+b) == Count(a)+Count(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
