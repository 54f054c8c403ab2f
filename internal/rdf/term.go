// Package rdf implements the RDF 1.1 data model used by every other layer of
// the GRDF system: IRIs, literals, blank nodes, triples and in-memory graphs,
// together with namespace management and the well-known vocabularies
// (RDF, RDFS, OWL, XSD) plus the GRDF and SecOnto vocabularies the paper
// defines.
//
// All term types are small comparable values so that triples can be used
// directly as map keys; the store package relies on this property for its
// indexes.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three RDF term categories.
type TermKind uint8

const (
	// KindIRI identifies an IRI term.
	KindIRI TermKind = iota
	// KindBlank identifies a blank node.
	KindBlank
	// KindLiteral identifies a literal (plain, typed or language-tagged).
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindBlank:
		return "blank"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term: an IRI, a blank node, or a literal.
//
// Every implementation in this package is a comparable value type, so Terms
// may be compared with == when both sides were produced by this package, and
// structs containing Terms may serve as map keys.
type Term interface {
	// Kind reports the term category.
	Kind() TermKind
	// String renders the term in N-Triples syntax
	// (e.g. <http://…>, _:b1, "chat"@en, "1"^^<…integer>).
	String() string
	// Equal reports whether the receiver denotes the same RDF term as o.
	Equal(o Term) bool
}

// IRI is an absolute IRI reference. The zero IRI ("") is invalid and is used
// by the matching layers as a wildcard-free sentinel.
type IRI string

// Kind implements Term.
func (IRI) Kind() TermKind { return KindIRI }

// String renders the IRI in N-Triples angle-bracket form.
func (i IRI) String() string { return "<" + string(i) + ">" }

// Equal implements Term.
func (i IRI) Equal(o Term) bool {
	j, ok := o.(IRI)
	return ok && i == j
}

// LocalName returns the fragment after the last '#' or '/', which is how the
// GRDF listings in the paper abbreviate terms (e.g. "#hasEdgeOf" → "hasEdgeOf").
func (i IRI) LocalName() string {
	s := string(i)
	if idx := strings.LastIndexAny(s, "#/"); idx >= 0 && idx+1 < len(s) {
		return s[idx+1:]
	}
	return s
}

// Namespace returns the IRI up to and including the last '#' or '/'.
func (i IRI) Namespace() string {
	s := string(i)
	if idx := strings.LastIndexAny(s, "#/"); idx >= 0 {
		return s[:idx+1]
	}
	return ""
}

// BlankNode is a blank node with a document-scoped label.
type BlankNode string

// Kind implements Term.
func (BlankNode) Kind() TermKind { return KindBlank }

// String renders the node in N-Triples form (_:label).
func (b BlankNode) String() string { return "_:" + string(b) }

// Equal implements Term.
func (b BlankNode) Equal(o Term) bool {
	c, ok := o.(BlankNode)
	return ok && b == c
}

// Literal is an RDF 1.1 literal. Every literal has a datatype; plain string
// literals carry XSDString, language-tagged literals carry RDFLangString and
// a non-empty Lang.
type Literal struct {
	// Value is the lexical form.
	Value string
	// Datatype is the datatype IRI. Never empty for a well-formed literal.
	Datatype IRI
	// Lang is the language tag (lower-cased); non-empty only when Datatype
	// is rdf:langString.
	Lang string
}

// Kind implements Term.
func (Literal) Kind() TermKind { return KindLiteral }

// String renders the literal in N-Triples syntax with escaping.
func (l Literal) String() string {
	return string(appendLiteral(make([]byte, 0, len(l.Value)+len(l.Datatype)+len(l.Lang)+6), l))
}

// Equal implements Term.
func (l Literal) Equal(o Term) bool {
	m, ok := o.(Literal)
	return ok && l == m
}

// HashTerm returns a stable 64-bit FNV-1a hash of a term, mixing the term
// kind with its lexical content. The store's dictionary uses it to pick a
// lock stripe; it is not a cryptographic hash.
func HashTerm(t Term) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	h ^= uint64(t.Kind())
	h *= prime64
	switch v := t.(type) {
	case IRI:
		mix(string(v))
	case BlankNode:
		mix(string(v))
	case Literal:
		mix(v.Value)
		h ^= 0xff
		h *= prime64
		mix(string(v.Datatype))
		h ^= 0xff
		h *= prime64
		mix(v.Lang)
	default:
		mix(t.String())
	}
	return h
}

// AppendTerm appends t's N-Triples form — what t.String() returns — to buf,
// without building the intermediate strings.
func AppendTerm(buf []byte, t Term) []byte {
	switch v := t.(type) {
	case IRI:
		buf = append(buf, '<')
		buf = append(buf, v...)
		return append(buf, '>')
	case BlankNode:
		buf = append(buf, "_:"...)
		return append(buf, v...)
	case Literal:
		return appendLiteral(buf, v)
	}
	return append(buf, t.String()...)
}

func appendLiteral(buf []byte, l Literal) []byte {
	buf = append(buf, '"')
	buf = appendEscaped(buf, l.Value)
	buf = append(buf, '"')
	if l.Lang != "" {
		buf = append(buf, '@')
		buf = append(buf, l.Lang...)
	} else if l.Datatype != "" && l.Datatype != XSDString {
		buf = append(buf, "^^<"...)
		buf = append(buf, l.Datatype...)
		buf = append(buf, '>')
	}
	return buf
}

// appendEscaped appends s as EscapeLiteral renders it: the five escapes, and
// U+FFFD for every byte that is not part of a UTF-8 sequence. The stretches
// between are copied as they are.
func appendEscaped(buf []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		var esc string
		switch c := s[i]; {
		case c == '\\':
			esc = `\\`
		case c == '"':
			esc = `\"`
		case c == '\n':
			esc = `\n`
		case c == '\r':
			esc = `\r`
		case c == '\t':
			esc = `\t`
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			esc = "\uFFFD"
		}
		buf = append(append(buf, s[start:i]...), esc...)
		i++
		start = i
	}
	return append(buf, s[start:]...)
}

// EscapeLiteral escapes a literal's lexical form for N-Triples/Turtle output.
// A form with nothing to escape is returned as it is.
func EscapeLiteral(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || c == '\\' || c == '"' || c == '\n' || c == '\r' || c == '\t' {
			if out := appendEscaped(make([]byte, 0, len(s)+8), s); string(out) != s {
				return string(out)
			}
			break
		}
	}
	return s
}

// DecodeUCHAR decodes the \u or \U escape at the start of s: `\u` and
// exactly four hex digits, or `\U` and exactly eight, naming a Unicode scalar
// value. It returns the rune and the escape's length. The N-Triples and
// Turtle parsers decode every such escape, in literals and IRIs, with it.
func DecodeUCHAR(s string) (rune, int, error) {
	width := 4
	if s[1] == 'U' {
		width = 8
	}
	if len(s) < 2+width {
		return 0, 0, fmt.Errorf(`truncated \%c escape`, s[1])
	}
	n, err := strconv.ParseUint(s[2:2+width], 16, 32)
	if err != nil || !utf8.ValidRune(rune(n)) {
		return 0, 0, fmt.Errorf("bad unicode escape %q", s[:2+width])
	}
	return rune(n), 2 + width, nil
}

// UnescapeIRI reads an IRI from its raw form, the text between '<' and '>',
// decoding its \u and \U escapes; any other backslash stands for itself. An
// IRI whose escapes decode to '>', a line break or an escape of its own is
// refused: AppendTerm writes an IRI back raw, and that IRI would not read
// back as itself.
func UnescapeIRI(raw string) (IRI, error) {
	var buf []byte
	from := 0
	for i := 0; i+1 < len(raw); i++ {
		if raw[i] != '\\' || (raw[i+1] != 'u' && raw[i+1] != 'U') {
			continue
		}
		r, n, err := DecodeUCHAR(raw[i:])
		if err != nil {
			return "", err
		}
		buf = utf8.AppendRune(append(buf, raw[from:i]...), r)
		i += n - 1
		from = i + 1
	}
	if buf == nil {
		return IRI(raw), nil
	}
	s := string(append(buf, raw[from:]...))
	if strings.ContainsAny(s, ">\r\n") || strings.Contains(s, `\u`) || strings.Contains(s, `\U`) {
		return "", fmt.Errorf("IRI <%s> decodes to %q, which cannot be written back between '<' and '>'", raw, s)
	}
	return IRI(s), nil
}

// AppendTriple appends t as an N-Triples statement (no trailing newline).
func AppendTriple(buf []byte, t Triple) []byte {
	buf = AppendTerm(buf, t.Subject)
	buf = append(buf, ' ')
	buf = AppendTerm(buf, t.Predicate)
	buf = append(buf, ' ')
	buf = AppendTerm(buf, t.Object)
	return append(buf, " ."...)
}

// Triple is an RDF statement. Subject must be an IRI or BlankNode, Predicate
// an IRI, Object any term; NewTriple enforces this, while the composite
// literal form is available for trusted construction sites.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// NewTriple validates term positions and returns the triple.
func NewTriple(s, p, o Term) (Triple, error) {
	if s == nil || p == nil || o == nil {
		return Triple{}, fmt.Errorf("rdf: nil term in triple (%v %v %v)", s, p, o)
	}
	if s.Kind() == KindLiteral {
		return Triple{}, fmt.Errorf("rdf: literal %s cannot be a subject", s)
	}
	if p.Kind() != KindIRI {
		return Triple{}, fmt.Errorf("rdf: predicate %s must be an IRI", p)
	}
	return Triple{Subject: s, Predicate: p, Object: o}, nil
}

// T builds a triple without validation; intended for compile-time-known terms.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple as an N-Triples statement (without trailing newline).
func (t Triple) String() string { return string(AppendTriple(make([]byte, 0, 160), t)) }

// Valid reports whether the triple satisfies RDF positional constraints.
func (t Triple) Valid() bool {
	return t.Subject != nil && t.Predicate != nil && t.Object != nil &&
		t.Subject.Kind() != KindLiteral && t.Predicate.Kind() == KindIRI
}

// Quad is a triple within a named graph; Graph == nil denotes the default graph.
type Quad struct {
	Triple
	Graph Term // IRI or BlankNode, nil for the default graph
}

// String renders the quad in N-Quads syntax.
func (q Quad) String() string {
	if q.Graph == nil {
		return q.Triple.String()
	}
	return q.Subject.String() + " " + q.Predicate.String() + " " + q.Object.String() + " " + q.Graph.String() + " ."
}
