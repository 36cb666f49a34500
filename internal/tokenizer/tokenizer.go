// Package tokenizer approximates an LLM tokenizer for Coq-like text. The
// paper bins theorems by the token length of their human proofs and
// truncates prompts to a model's context window; this package provides the
// deterministic counting both rely on.
//
// The scheme follows the shape of byte-pair encodings on code: identifiers
// and numbers cost one token per 5-character chunk, each punctuation
// symbol costs one token, and whitespace is free (it fuses with the next
// token, as BPE merges typically do).
package tokenizer

import "unicode"

// chunk is the identifier length covered by one token.
const chunk = 5

// Count returns the approximate token count of the text.
func Count(text string) int {
	n := 0
	runes := []rune(text)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isWordRune(r):
			j := i
			for j < len(runes) && isWordRune(runes[j]) {
				j++
			}
			length := j - i
			n += (length + chunk - 1) / chunk
			i = j
		default:
			n++
			i++
		}
	}
	return n
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

// Tokens splits the text into the token strings Count counts, mainly for
// tests and debugging.
func Tokens(text string) []string {
	var out []string
	runes := []rune(text)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isWordRune(r):
			j := i
			for j < len(runes) && isWordRune(runes[j]) {
				j++
			}
			word := runes[i:j]
			for k := 0; k < len(word); k += chunk {
				end := k + chunk
				if end > len(word) {
					end = len(word)
				}
				out = append(out, string(word[k:end]))
			}
			i = j
		default:
			out = append(out, string(r))
			i++
		}
	}
	return out
}
