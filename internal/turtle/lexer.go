// Package turtle implements a Turtle (Terse RDF Triple Language) parser and a
// pretty serializer. Turtle is the human-facing syntax used throughout the
// repository for the GRDF ontology files, example data and test fixtures.
//
// Supported syntax: @prefix/@base (and SPARQL-style PREFIX/BASE), prefixed
// names, the 'a' keyword, object lists (','), predicate-object lists (';'),
// blank node property lists '[...]', collections '(...)', all literal forms
// (short/long, single/double quoted, language tags, datatypes) and the
// numeric and boolean shorthands.
package turtle

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

type tokenKind uint8

const (
	tokEOF          tokenKind = iota
	tokIRIRef                 // <...>
	tokPrefixedName           // ex:local or ex: or :local
	tokBlankNode              // _:label
	tokLiteral                // string literal (value carried unescaped)
	tokLangTag                // @en
	tokDoubleCaret            // ^^
	tokDot
	tokSemicolon
	tokComma
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokA          // keyword 'a'
	tokPrefixDecl // @prefix or PREFIX
	tokBaseDecl   // @base or BASE
	tokNumber     // integer/decimal/double shorthand
	tokBoolean    // true/false
	tokAnon       // [] with no content handled by parser via brackets
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	return fmt.Sprintf("%v(%q)@%d:%d", t.kind, t.text, t.line, t.col)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	// owned holds the copy of every string the lexer has handed out that a
	// term can keep: a window on src would keep the whole document alive for
	// as long as any term it made lives, in a store's dictionary say.
	owned map[string]string
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1, owned: map[string]string{}}
}

// own returns a copy of s that does not share src's memory, made once per
// distinct string per document. (A literal's value needs none: it is built
// in a strings.Builder of its own.)
func (l *lexer) own(s string) string {
	c, ok := l.owned[s]
	if !ok {
		c = strings.Clone(s)
		l.owned[c] = c
	}
	return c
}

// Error is a Turtle syntax error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("turtle: %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	startLine, startCol := l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: startLine, col: startCol}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.src[l.pos]
	switch c {
	case '<':
		end := strings.IndexByte(l.src[l.pos:], '>')
		if end < 0 {
			return token{}, l.errf("unterminated IRI reference")
		}
		iri, err := rdf.UnescapeIRI(l.src[l.pos+1 : l.pos+end])
		if err != nil {
			return token{}, l.errf("%v", err)
		}
		l.advance(end + 1)
		return mk(tokIRIRef, l.own(string(iri))), nil
	case '.':
		// Distinguish statement-terminating dot from a leading decimal like .5
		if isDigit(l.peekAt(1)) {
			return l.lexNumber(mk)
		}
		l.advance(1)
		return mk(tokDot, "."), nil
	case ';':
		l.advance(1)
		return mk(tokSemicolon, ";"), nil
	case ',':
		l.advance(1)
		return mk(tokComma, ","), nil
	case '[':
		l.advance(1)
		return mk(tokLBracket, "["), nil
	case ']':
		l.advance(1)
		return mk(tokRBracket, "]"), nil
	case '(':
		l.advance(1)
		return mk(tokLParen, "("), nil
	case ')':
		l.advance(1)
		return mk(tokRParen, ")"), nil
	case '^':
		if l.peekAt(1) == '^' {
			l.advance(2)
			return mk(tokDoubleCaret, "^^"), nil
		}
		return token{}, l.errf("stray '^'")
	case '@':
		// @prefix, @base or language tag
		word := l.word(1)
		switch strings.ToLower(word) {
		case "prefix":
			l.advance(1 + len(word))
			return mk(tokPrefixDecl, "@prefix"), nil
		case "base":
			l.advance(1 + len(word))
			return mk(tokBaseDecl, "@base"), nil
		default:
			// language tag: letters and hyphens
			end := l.pos + 1
			for end < len(l.src) && (isAlpha(l.src[end]) || l.src[end] == '-' || isDigit(l.src[end])) {
				end++
			}
			if end == l.pos+1 {
				return token{}, l.errf("empty language tag")
			}
			tag := l.own(l.src[l.pos+1 : end])
			l.advance(end - l.pos)
			return mk(tokLangTag, tag), nil
		}
	case '"', '\'':
		return l.lexString(mk)
	case '_':
		if l.peekAt(1) != ':' {
			return token{}, l.errf("expected ':' after '_'")
		}
		end := l.pos + 2
		for end < len(l.src) && isNameChar(l.src[end]) {
			end++
		}
		label := l.own(l.src[l.pos+2 : end])
		if label == "" {
			return token{}, l.errf("empty blank node label")
		}
		l.advance(end - l.pos)
		return mk(tokBlankNode, label), nil
	case '+', '-':
		return l.lexNumber(mk)
	}
	if isDigit(c) {
		return l.lexNumber(mk)
	}
	// bare word: 'a', true/false, PREFIX/BASE, or prefixed name
	word := l.word(0)
	if word == "" {
		return token{}, l.errf("unexpected character %q", c)
	}
	// Check for prefixed name (contains ':').
	if idx := strings.IndexByte(word, ':'); idx >= 0 {
		l.advance(len(word))
		return mk(tokPrefixedName, l.own(word)), nil
	}
	switch word {
	case "a":
		l.advance(1)
		return mk(tokA, "a"), nil
	case "true", "false":
		l.advance(len(word))
		return mk(tokBoolean, word), nil
	}
	switch strings.ToUpper(word) {
	case "PREFIX":
		l.advance(len(word))
		return mk(tokPrefixDecl, "PREFIX"), nil
	case "BASE":
		l.advance(len(word))
		return mk(tokBaseDecl, "BASE"), nil
	}
	// A bare prefix label before ':' split by whitespace is invalid Turtle;
	// treat unknown words as errors.
	return token{}, l.errf("unexpected token %q", word)
}

// word scans a run of name characters starting at offset off from pos,
// including ':' so prefixed names come out whole. Does not advance.
func (l *lexer) word(off int) string {
	start := l.pos + off
	end := start
	for end < len(l.src) {
		c := l.src[end]
		if isNameChar(c) || c == ':' {
			end++
			continue
		}
		// Allow non-ASCII letters in names.
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(l.src[end:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				end += size
				continue
			}
		}
		break
	}
	// Trailing dots belong to the statement terminator, not the name.
	w := l.src[start:end]
	for strings.HasSuffix(w, ".") {
		w = w[:len(w)-1]
	}
	return w
}

func (l *lexer) lexNumber(mk func(tokenKind, string) token) (token, error) {
	end := l.pos
	if end < len(l.src) && (l.src[end] == '+' || l.src[end] == '-') {
		end++
	}
	digits := 0
	for end < len(l.src) && isDigit(l.src[end]) {
		end++
		digits++
	}
	// Fraction: only if a digit follows the dot (otherwise the dot terminates
	// the statement).
	if end < len(l.src) && l.src[end] == '.' && end+1 < len(l.src) && isDigit(l.src[end+1]) {
		end++
		for end < len(l.src) && isDigit(l.src[end]) {
			end++
			digits++
		}
	}
	if end < len(l.src) && (l.src[end] == 'e' || l.src[end] == 'E') {
		mark := end
		end++
		if end < len(l.src) && (l.src[end] == '+' || l.src[end] == '-') {
			end++
		}
		expDigits := 0
		for end < len(l.src) && isDigit(l.src[end]) {
			end++
			expDigits++
		}
		if expDigits == 0 {
			end = mark
		}
	}
	if digits == 0 {
		return token{}, l.errf("malformed number")
	}
	text := l.own(l.src[l.pos:end])
	l.advance(end - l.pos)
	return mk(tokNumber, text), nil
}

func (l *lexer) lexString(mk func(tokenKind, string) token) (token, error) {
	quote := l.src[l.pos]
	long := false
	if l.peekAt(1) == quote && l.peekAt(2) == quote {
		long = true
		l.advance(3)
	} else {
		l.advance(1)
	}
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if !long {
				l.advance(1)
				return mk(tokLiteral, sb.String()), nil
			}
			if l.peekAt(1) == quote && l.peekAt(2) == quote {
				l.advance(3)
				return mk(tokLiteral, sb.String()), nil
			}
			sb.WriteByte(c)
			l.advance(1)
			continue
		}
		if c == '\\' {
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("dangling escape")
			}
			esc := l.src[l.pos+1]
			switch esc {
			case 't':
				sb.WriteByte('\t')
				l.advance(2)
			case 'n':
				sb.WriteByte('\n')
				l.advance(2)
			case 'r':
				sb.WriteByte('\r')
				l.advance(2)
			case 'b':
				sb.WriteByte('\b')
				l.advance(2)
			case 'f':
				sb.WriteByte('\f')
				l.advance(2)
			case '"', '\'', '\\':
				sb.WriteByte(esc)
				l.advance(2)
			case 'u', 'U':
				r, n, err := rdf.DecodeUCHAR(l.src[l.pos:])
				if err != nil {
					return token{}, l.errf("%v", err)
				}
				sb.WriteRune(r)
				l.advance(n)
			default:
				return token{}, l.errf("unknown escape \\%c", esc)
			}
			continue
		}
		if !long && (c == '\n' || c == '\r') {
			return token{}, l.errf("newline in short string literal")
		}
		if c >= utf8.RuneSelf {
			// A byte that is not part of a UTF-8 sequence reads as U+FFFD,
			// which is what the writer writes for it.
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			sb.WriteRune(r)
			l.advance(size)
			continue
		}
		sb.WriteByte(c)
		l.advance(1)
	}
	return token{}, l.errf("unterminated string literal")
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isNameChar(c byte) bool {
	return isAlpha(c) || isDigit(c) || c == '_' || c == '-' || c == '.' || c == '%' || c >= utf8.RuneSelf
}
