package main

import (
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
