package turtle

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Parser parses a Turtle document, handing each triple to a sink.
type Parser struct {
	lx       *lexer
	tok      token
	peeked   *token
	prefixes *rdf.Prefixes
	base     string
	emit     func(rdf.Triple)
	// labels maps the document's blank node labels to the nodes they stand
	// for; taken holds every blank node handed out, labelled or made fresh
	// for an anonymous node, which takes the first "ttlN" not taken. A label
	// is its own node unless a fresh node has that label already.
	labels   map[string]rdf.BlankNode
	taken    map[rdf.BlankNode]bool
	blankSeq int
}

// parseTo parses a complete Turtle document and hands every triple to emit
// in document order, duplicates included: nothing is collected on the way.
// The returned prefix table includes both the caller-supplied defaults (may
// be nil) and the document's own @prefix declarations.
func parseTo(doc string, defaults *rdf.Prefixes, emit func(rdf.Triple)) (*rdf.Prefixes, error) {
	p := &Parser{
		lx:       newLexer(doc),
		prefixes: rdf.NewPrefixes(),
		emit:     emit,
		labels:   map[string]rdf.BlankNode{},
		taken:    map[rdf.BlankNode]bool{},
	}
	if defaults != nil {
		defaults.Each(func(prefix, ns string) { p.prefixes.Bind(prefix, ns) })
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.prefixes, nil
}

// Parse parses a complete Turtle document into a graph (duplicates
// collapsed). The returned prefix table includes both the caller-supplied
// defaults (may be nil) and the document's own @prefix declarations.
func Parse(doc string, defaults *rdf.Prefixes) (*rdf.Graph, *rdf.Prefixes, error) {
	g := rdf.NewGraph()
	prefixes, err := parseTo(doc, defaults, func(t rdf.Triple) { g.Add(t) })
	if err != nil {
		return nil, nil, err
	}
	return g, prefixes, nil
}

// ParseString parses a Turtle document with the common GRDF prefixes preloaded.
func ParseString(doc string) (*rdf.Graph, error) {
	g, _, err := Parse(doc, rdf.CommonPrefixes())
	return g, err
}

// ParseTriples parses a Turtle document with the common GRDF prefixes
// preloaded into its triples, in document order and with any duplicates: the
// form to hand a store's AddAll, which drops them, without building a graph
// first.
func ParseTriples(doc string) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	if _, err := parseTo(doc, rdf.CommonPrefixes(), func(t rdf.Triple) { ts = append(ts, t) }); err != nil {
		return nil, err
	}
	return ts, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) next() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *Parser) run() error {
	for {
		if err := p.next(); err != nil {
			return err
		}
		switch p.tok.kind {
		case tokEOF:
			return nil
		case tokPrefixDecl:
			if err := p.parsePrefixDecl(); err != nil {
				return err
			}
		case tokBaseDecl:
			if err := p.parseBaseDecl(); err != nil {
				return err
			}
		default:
			if err := p.parseStatement(); err != nil {
				return err
			}
		}
	}
}

func (p *Parser) parsePrefixDecl() error {
	sparqlForm := p.tok.text == "PREFIX"
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != tokPrefixedName || !strings.HasSuffix(p.tok.text, ":") {
		return p.errf("expected prefix label, got %q", p.tok.text)
	}
	prefix := strings.TrimSuffix(p.tok.text, ":")
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != tokIRIRef {
		return p.errf("expected namespace IRI, got %q", p.tok.text)
	}
	p.prefixes.Bind(prefix, p.resolve(p.tok.text))
	if !sparqlForm {
		if err := p.next(); err != nil {
			return err
		}
		if p.tok.kind != tokDot {
			return p.errf("expected '.' after @prefix declaration")
		}
	}
	return nil
}

func (p *Parser) parseBaseDecl() error {
	sparqlForm := p.tok.text == "BASE"
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != tokIRIRef {
		return p.errf("expected base IRI")
	}
	p.base = p.tok.text
	if !sparqlForm {
		if err := p.next(); err != nil {
			return err
		}
		if p.tok.kind != tokDot {
			return p.errf("expected '.' after @base declaration")
		}
	}
	return nil
}

// resolve applies the base IRI to relative references.
func (p *Parser) resolve(ref string) string {
	if ref == "" {
		return p.base
	}
	if strings.Contains(ref, "://") || strings.HasPrefix(ref, "urn:") || p.base == "" {
		return ref
	}
	if strings.HasPrefix(ref, "#") {
		return strings.TrimSuffix(p.base, "#") + ref
	}
	// crude relative resolution: append to base directory
	idx := strings.LastIndexByte(p.base, '/')
	if idx < 0 {
		return p.base + ref
	}
	return p.base[:idx+1] + ref
}

// parseStatement parses one triples statement (subject predicateObjectList '.').
// The current token is the first token of the subject.
func (p *Parser) parseStatement() error {
	subj, err := p.parseSubject()
	if err != nil {
		return err
	}
	if err := p.next(); err != nil {
		return err
	}
	// A bare blank node property list may be followed directly by '.'.
	if p.tok.kind == tokDot {
		return nil
	}
	if err := p.parsePredicateObjectList(subj); err != nil {
		return err
	}
	if p.tok.kind != tokDot {
		return p.errf("expected '.' at end of statement, got %q", p.tok.text)
	}
	return nil
}

func (p *Parser) parseSubject() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRIRef:
		return rdf.IRI(p.resolve(p.tok.text)), nil
	case tokPrefixedName:
		return p.expandPN(p.tok.text)
	case tokBlankNode:
		return p.labelled(p.tok.text), nil
	case tokLBracket:
		return p.parseBlankNodePropertyList()
	case tokLParen:
		return p.parseCollection()
	default:
		return nil, p.errf("bad subject token %q", p.tok.text)
	}
}

func (p *Parser) expandPN(qname string) (rdf.IRI, error) {
	iri, err := p.prefixes.Expand(qname)
	if err != nil {
		return "", p.errf("%v", err)
	}
	return iri, nil
}

// parsePredicateObjectList parses "verb objectList (';' (verb objectList)?)*".
// On entry the current token is the first verb token; on exit the current
// token is the one after the list (typically '.' or ']' ).
func (p *Parser) parsePredicateObjectList(subj rdf.Term) error {
	for {
		if p.tok.kind == tokSemicolon {
			// tolerate repeated/dangling semicolons
			if err := p.next(); err != nil {
				return err
			}
			continue
		}
		var pred rdf.Term
		switch p.tok.kind {
		case tokA:
			pred = rdf.RDFType
		case tokIRIRef:
			pred = rdf.IRI(p.resolve(p.tok.text))
		case tokPrefixedName:
			iri, err := p.expandPN(p.tok.text)
			if err != nil {
				return err
			}
			pred = iri
		default:
			return p.errf("bad predicate token %q", p.tok.text)
		}
		// object list
		for {
			if err := p.next(); err != nil {
				return err
			}
			obj, err := p.parseObject()
			if err != nil {
				return err
			}
			p.emit(rdf.T(subj, pred, obj))
			if err := p.next(); err != nil {
				return err
			}
			if p.tok.kind != tokComma {
				break
			}
		}
		if p.tok.kind != tokSemicolon {
			return nil
		}
		// After ';' the list may end (before '.' or ']').
		nxt, err := p.peek()
		if err != nil {
			return err
		}
		if nxt.kind == tokDot || nxt.kind == tokRBracket {
			return p.next()
		}
		if err := p.next(); err != nil {
			return err
		}
	}
}

// parseObject parses the object whose first token is current.
func (p *Parser) parseObject() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRIRef:
		return rdf.IRI(p.resolve(p.tok.text)), nil
	case tokPrefixedName:
		return p.expandPN(p.tok.text)
	case tokBlankNode:
		return p.labelled(p.tok.text), nil
	case tokLBracket:
		return p.parseBlankNodePropertyList()
	case tokLParen:
		return p.parseCollection()
	case tokBoolean:
		return rdf.NewBoolean(p.tok.text == "true"), nil
	case tokNumber:
		return numberLiteral(p.tok.text), nil
	case tokLiteral:
		val := p.tok.text
		nxt, err := p.peek()
		if err != nil {
			return nil, err
		}
		switch nxt.kind {
		case tokLangTag:
			if err := p.next(); err != nil {
				return nil, err
			}
			return rdf.NewLangString(val, p.tok.text), nil
		case tokDoubleCaret:
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokIRIRef:
				return rdf.Literal{Value: val, Datatype: rdf.IRI(p.resolve(p.tok.text))}, nil
			case tokPrefixedName:
				dt, err := p.expandPN(p.tok.text)
				if err != nil {
					return nil, err
				}
				return rdf.Literal{Value: val, Datatype: dt}, nil
			default:
				return nil, p.errf("expected datatype IRI after ^^")
			}
		}
		return rdf.NewString(val), nil
	default:
		return nil, p.errf("bad object token %q", p.tok.text)
	}
}

// parseBlankNodePropertyList parses "[ predicateObjectList ]"; current token
// is '['. Returns the fresh blank node.
func (p *Parser) parseBlankNodePropertyList() (rdf.Term, error) {
	node := p.fresh()
	if err := p.next(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokRBracket { // anonymous node []
		return node, nil
	}
	if err := p.parsePredicateObjectList(node); err != nil {
		return nil, err
	}
	if p.tok.kind != tokRBracket {
		return nil, p.errf("expected ']', got %q", p.tok.text)
	}
	return node, nil
}

// parseCollection parses "( object* )"; current token is '('.
func (p *Parser) parseCollection() (rdf.Term, error) {
	var items []rdf.Term
	for {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokRParen {
			break
		}
		obj, err := p.parseObject()
		if err != nil {
			return nil, err
		}
		items = append(items, obj)
	}
	return rdf.EmitList(items, p.fresh, p.emit), nil
}

// labelled returns the blank node the document's label stands for.
func (p *Parser) labelled(label string) rdf.BlankNode {
	node, ok := p.labels[label]
	if !ok {
		if node = rdf.BlankNode(label); p.taken[node] {
			node = p.fresh()
		}
		p.labels[label] = node
		p.taken[node] = true
	}
	return node
}

// fresh returns a blank node no label of the document stands for.
func (p *Parser) fresh() rdf.BlankNode {
	for {
		p.blankSeq++
		if node := rdf.BlankNode(fmt.Sprintf("ttl%d", p.blankSeq)); !p.taken[node] {
			p.taken[node] = true
			return node
		}
	}
}

// numberLiteral classifies a Turtle numeric shorthand into the right XSD type.
func numberLiteral(text string) rdf.Literal {
	lower := strings.ToLower(text)
	switch {
	case strings.ContainsAny(lower, "e"):
		return rdf.Literal{Value: text, Datatype: rdf.XSDDouble}
	case strings.Contains(text, "."):
		return rdf.Literal{Value: text, Datatype: rdf.XSDDecimal}
	default:
		return rdf.Literal{Value: text, Datatype: rdf.XSDInteger}
	}
}
