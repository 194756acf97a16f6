// Package text provides the lexical substrate of the natural-language
// parser: tokenization, edit distance, light stemming, the synonym lexicon
// of shape entities, and a compact embedded synset graph ("wordnet-lite")
// for the semantic-similarity fallback the paper uses when edit distance is
// inconclusive (Section 4, "Identifying Pattern and Modifier Value").
package text

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one lexical unit of a natural-language query.
type Token struct {
	Text string // lowercased
	Raw  string
	// IsNumber marks numeric tokens; Num holds the parsed value.
	IsNumber bool
	Num      float64
	// IsPunct marks punctuation tokens.
	IsPunct bool
	// Pos is the byte offset in the original query.
	Pos int
}

// Tokenize splits a query into word, number and punctuation tokens.
// Contractions and hyphenated words stay together ("up-regulated").
func Tokenize(s string) []Token {
	var tokens []Token
	i := 0
	for i < len(s) {
		r := rune(s[i])
		switch {
		case unicode.IsSpace(r):
			i++
		case r >= '0' && r <= '9' || r == '.' && i+1 < len(s) && isDigit(s[i+1]):
			start := i
			for i < len(s) && (isDigit(s[i]) || s[i] == '.') {
				i++
			}
			raw := s[start:i]
			n, err := strconv.ParseFloat(strings.TrimSuffix(raw, "."), 64)
			if err == nil {
				tokens = append(tokens, Token{Text: raw, Raw: raw, IsNumber: true, Num: n, Pos: start})
			}
		case isWordRune(r):
			start := i
			for i < len(s) && (isWordRune(rune(s[i])) || s[i] == '-' || s[i] == '\'') {
				i++
			}
			raw := s[start:i]
			tokens = append(tokens, Token{Text: strings.ToLower(raw), Raw: raw, Pos: start})
		default:
			tokens = append(tokens, Token{Text: string(r), Raw: string(r), IsPunct: true, Pos: i})
			i++
		}
	}
	return tokens
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isWordRune(r rune) bool { return unicode.IsLetter(r) || r == '_' }

// editMaxStack is the longest word, in runes, whose edit distance runs on
// stack buffers only; the lexicon's longest word has 14 runes. Longer words
// take heap buffers and give the same distance.
const editMaxStack = 32

// EditDistance computes the Levenshtein distance between two strings.
func EditDistance(a, b string) int {
	if a == b {
		return 0
	}
	var bufA, bufB [editMaxStack]rune
	ra, rb := appendRunes(bufA[:0], a), appendRunes(bufB[:0], b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	var rows [2 * (editMaxStack + 1)]int
	prev, cur := rows[:editMaxStack+1], rows[editMaxStack+1:]
	if len(rb) > editMaxStack {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
	prev, cur = prev[:len(rb)+1], cur[:len(rb)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// appendRunes appends the runes of s to dst, as []rune(s) decodes them.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// NormalizedEditDistance is the edit distance divided by the average length
// of the two words, the paper's matching measure.
func NormalizedEditDistance(a, b string) float64 {
	return normalizeDistance(EditDistance(a, b), a, b)
}

// normalizeDistance divides edit distance d of a and b by their average
// length in runes (0 when both are empty).
func normalizeDistance(d int, a, b string) float64 {
	avg := float64(utf8.RuneCountInString(a)+utf8.RuneCountInString(b)) / 2
	if avg == 0 {
		return 0
	}
	return float64(d) / avg
}

// Stem strips common inflection suffixes (a deliberately light stemmer:
// "rising" → "rise" is not attempted; matching uses synonyms with -ing
// forms included, and Stem only handles plural/past/adverb suffixes).
func Stem(w string) string {
	for _, suf := range []string{"ies", "es", "s", "ed", "ly"} {
		if strings.HasSuffix(w, suf) && len(w) > len(suf)+2 {
			return w[:len(w)-len(suf)]
		}
	}
	return w
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
