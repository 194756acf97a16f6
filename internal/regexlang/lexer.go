// Package regexlang parses ShapeSearch's visual regular expression language
// into the ShapeQuery algebra, implementing the context-free grammar of
// Table 2 of the paper. The language accepts both the paper's Unicode
// operator glyphs (⊗ ⊙ ⊕) and ASCII spellings (";" or juxtaposition for
// CONCAT, "&" for AND, "|" for OR, "!" for OPPOSITE).
//
// Examples:
//
//	[p=up][p=down][p=up]                  three patterns in sequence
//	u ; d ; u                             the same, with bare patterns
//	[x.s=2, x.e=5, p=up, m=>>]            sharply rising from x=2 to x=5
//	[p=up, m={2,}] & ![p=flat]            at least two rises and not flat
//	[x.s=., x.e=.+3, p=up]                best rise over any 3-wide window
//	[p=up]([p=flat] | [p=down][p=up])     grouping and alternation
package regexlang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokColon
	tokConcat // ⊗ or ;
	tokAnd    // ⊙ or &
	tokOr     // ⊕ or |
	tokBang
	tokQuestion
	tokEq
	tokGT
	tokGTGT
	tokLT
	tokLTLT
	tokDot
	tokPlus
	tokMinus
	tokDollar
	tokNumber
	tokIdent
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokConcat:
		return "CONCAT"
	case tokAnd:
		return "AND"
	case tokOr:
		return "OR"
	case tokBang:
		return "'!'"
	case tokQuestion:
		return "'?'"
	case tokEq:
		return "'='"
	case tokGT:
		return "'>'"
	case tokGTGT:
		return "'>>'"
	case tokLT:
		return "'<'"
	case tokLTLT:
		return "'<<'"
	case tokDot:
		return "'.'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokDollar:
		return "'$'"
	case tokNumber:
		return "number"
	case tokIdent:
		return "identifier"
	default:
		return "unknown token"
	}
}

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int // byte offset in the input, for error messages
}

// lexer produces tokens from a query string.
type lexer struct {
	input string
	pos   int
}

// A SyntaxError reports where parsing failed and why.
type SyntaxError struct {
	Pos     int
	Message string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("regexlang: position %d: %s", e.Pos, e.Message)
}

func errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Message: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.input) {
		r := rune(l.input[l.pos])
		if r < 0x80 && (r == ' ' || r == '\t' || r == '\n' || r == '\r') {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.input) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	rest := l.input[l.pos:]

	// Degree signs are decoration (θ = 45° reads naturally): skip them.
	if strings.HasPrefix(rest, "°") {
		l.pos += len("°")
		return l.next()
	}
	// Unicode operator glyphs.
	for _, g := range []struct {
		glyph string
		kind  tokenKind
	}{
		{"⊗", tokConcat}, {"⊙", tokAnd}, {"⊕", tokOr},
	} {
		if strings.HasPrefix(rest, g.glyph) {
			l.pos += len(g.glyph)
			return token{kind: g.kind, text: g.glyph, pos: start}, nil
		}
	}

	c := l.input[l.pos]
	switch c {
	case '[':
		l.pos++
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case ']':
		l.pos++
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case '{':
		l.pos++
		return token{kind: tokLBrace, text: "{", pos: start}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, text: "}", pos: start}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case ':':
		l.pos++
		return token{kind: tokColon, text: ":", pos: start}, nil
	case ';':
		l.pos++
		return token{kind: tokConcat, text: ";", pos: start}, nil
	case '&':
		l.pos++
		return token{kind: tokAnd, text: "&", pos: start}, nil
	case '|':
		l.pos++
		return token{kind: tokOr, text: "|", pos: start}, nil
	case '!':
		l.pos++
		return token{kind: tokBang, text: "!", pos: start}, nil
	case '?':
		l.pos++
		return token{kind: tokQuestion, text: "?", pos: start}, nil
	case '=':
		l.pos++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case '>':
		if strings.HasPrefix(rest, ">>") {
			l.pos += 2
			return token{kind: tokGTGT, text: ">>", pos: start}, nil
		}
		l.pos++
		return token{kind: tokGT, text: ">", pos: start}, nil
	case '<':
		if strings.HasPrefix(rest, "<<") {
			l.pos += 2
			return token{kind: tokLTLT, text: "<<", pos: start}, nil
		}
		l.pos++
		return token{kind: tokLT, text: "<", pos: start}, nil
	case '+':
		l.pos++
		return token{kind: tokPlus, text: "+", pos: start}, nil
	case '-':
		l.pos++
		return token{kind: tokMinus, text: "-", pos: start}, nil
	case '$':
		l.pos++
		return token{kind: tokDollar, text: "$", pos: start}, nil
	case '*':
		l.pos++
		return token{kind: tokIdent, text: "*", pos: start}, nil
	case '.':
		// "." followed by a digit is a number; otherwise the ITERATOR.
		if l.pos+1 < len(l.input) && isDigit(l.input[l.pos+1]) {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	}

	if isDigit(c) {
		return l.lexNumber()
	}
	r, size := utf8.DecodeRuneInString(rest)
	if r == utf8.RuneError && size == 1 {
		return token{}, errf(start, "invalid UTF-8 byte %#x", c)
	}
	if isIdentStart(r) {
		return l.lexIdent()
	}
	return token{}, errf(start, "unexpected character %q", string(r))
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.input) && isDigit(l.input[l.pos+1]) {
			seenDot = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.input) {
			nxt := l.input[l.pos+1]
			if isDigit(nxt) {
				l.pos += 2
				continue
			}
			if (nxt == '+' || nxt == '-') && l.pos+2 < len(l.input) && isDigit(l.input[l.pos+2]) {
				l.pos += 3
				continue
			}
		}
		break
	}
	text := l.input[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, errf(start, "invalid number %q", text)
	}
	return token{kind: tokNumber, text: text, num: f, pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.input) {
		r, size := utf8.DecodeRuneInString(l.input[l.pos:])
		if isIdentStart(r) || r < utf8.RuneSelf && isDigit(byte(r)) {
			l.pos += size
			continue
		}
		// Embedded dots join sub-primitive names: x.s, y.e.
		if r == '.' {
			if next, n := utf8.DecodeRuneInString(l.input[l.pos+1:]); isIdentStart(next) {
				l.pos += 1 + n
				continue
			}
		}
		break
	}
	text := strings.ToLower(l.input[start:l.pos])
	if text == "θ" {
		// The paper's slope glyph, θ = 45, in either case. Mapped here, on
		// the whole identifier, so that a name merely starting with θ stays
		// one identifier.
		text = "theta"
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}
