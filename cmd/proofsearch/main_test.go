package main

import (
	"strings"
	"testing"

	"llmfscq/internal/prompt"
)

func TestParseSetting(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want prompt.Setting
		ok   bool
	}{
		{"vanilla", prompt.Vanilla, true},
		{"hint", prompt.Hint, true},
		{"Hint", 0, false},
		{"hints", 0, false},
		{"", 0, false},
	} {
		got, err := parseSetting(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseSetting(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestCheckBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    int
		ok   bool
	}{
		{"fuel", 128, true},
		{"fuel", 1, true},
		{"fuel", 0, false},
		{"fuel", -3, false},
		{"width", 8, true},
		{"width", 16, true},
		{"width", 0, false},
		{"width", -1, false},
	} {
		err := checkBudget(tc.name, tc.v)
		if (err == nil) != tc.ok {
			t.Errorf("checkBudget(%q, %d) = %v; want ok=%v", tc.name, tc.v, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-"+tc.name) {
			t.Errorf("checkBudget(%q, %d): %q does not name the flag", tc.name, tc.v, err)
		}
	}
}
