package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

type parser struct {
	toks     []tok
	pos      int
	prefixes *rdf.Prefixes
}

// commonPrefixes is the default prefix table of every query: built once, and
// only ever read.
var commonPrefixes = rdf.CommonPrefixes()

// ParseQuery parses a SPARQL query. defaults may preload prefix bindings
// (nil means the common GRDF prefixes). The query's table extends defaults:
// its PREFIX declarations, and any later Bind on q.Prefixes, go to the
// query's table alone.
func ParseQuery(src string, defaults *rdf.Prefixes) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if defaults == nil {
		defaults = commonPrefixes
	}
	p := &parser{toks: toks, prefixes: defaults.Extend()}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.Prefixes = p.prefixes
	q.Fingerprint, q.CanonicalForm = FingerprintQuery(q)
	return q, nil
}

func (p *parser) cur() tok  { return p.toks[p.pos] }
func (p *parser) advance()  { p.pos++ }
func (p *parser) peek() tok { return p.toks[p.pos] }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(text string) error {
	if p.cur().kind != tPunct || p.cur().text != text {
		return p.errf("expected %q, got %q", text, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) isPunct(text string) bool {
	return p.cur().kind == tPunct && p.cur().text == text
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur().kind == tKeyword && p.cur().text == kw
}

func (p *parser) parseQuery() (*Query, error) {
	// Prologue
	for {
		switch {
		case p.isKeyword("PREFIX"):
			p.advance()
			if p.cur().kind != tPName || !strings.HasSuffix(p.cur().text, ":") {
				return nil, p.errf("expected prefix label")
			}
			label := strings.TrimSuffix(p.cur().text, ":")
			p.advance()
			if p.cur().kind != tIRI {
				return nil, p.errf("expected namespace IRI")
			}
			p.prefixes.Bind(label, p.cur().text)
			p.advance()
		case p.isKeyword("BASE"):
			p.advance()
			if p.cur().kind != tIRI {
				return nil, p.errf("expected base IRI")
			}
			p.advance()
		default:
			goto body
		}
	}
body:
	q := &Query{Limit: -1}
	switch {
	case p.isKeyword("SELECT"):
		p.advance()
		q.Kind = Select
		if p.isKeyword("DISTINCT") || p.isKeyword("REDUCED") {
			q.Distinct = p.cur().text == "DISTINCT"
			p.advance()
		}
		if p.isPunct("*") {
			p.advance()
		} else {
			for {
				if p.cur().kind == tVar {
					q.Vars = append(q.Vars, Variable(p.cur().text))
					p.advance()
					continue
				}
				if p.isPunct("(") {
					agg, err := p.parseAggregate()
					if err != nil {
						return nil, err
					}
					q.Aggregates = append(q.Aggregates, agg)
					continue
				}
				break
			}
			if len(q.Vars) == 0 && len(q.Aggregates) == 0 {
				return nil, p.errf("SELECT requires '*', variables or aggregates")
			}
		}
		if p.isKeyword("WHERE") {
			p.advance()
		}
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		q.Where = g
	case p.isKeyword("ASK"):
		p.advance()
		q.Kind = Ask
		if p.isKeyword("WHERE") {
			p.advance()
		}
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		q.Where = g
	case p.isKeyword("CONSTRUCT"):
		p.advance()
		q.Kind = Construct
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		tmpl, err := p.parseTriplesBlock()
		if err != nil {
			return nil, err
		}
		q.Template = tmpl
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		if !p.isKeyword("WHERE") {
			return nil, p.errf("CONSTRUCT requires WHERE")
		}
		p.advance()
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		q.Where = g
	case p.isKeyword("DESCRIBE"):
		p.advance()
		q.Kind = Describe
		for {
			t := p.cur()
			switch {
			case t.kind == tVar:
				q.DescribeTargets = append(q.DescribeTargets, Variable(t.text))
				p.advance()
				continue
			case t.kind == tIRI:
				q.DescribeTargets = append(q.DescribeTargets, rdf.IRI(t.text))
				p.advance()
				continue
			case t.kind == tPName:
				iri, err := p.prefixes.Expand(t.text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				q.DescribeTargets = append(q.DescribeTargets, iri)
				p.advance()
				continue
			}
			break
		}
		if len(q.DescribeTargets) == 0 {
			return nil, p.errf("DESCRIBE requires targets")
		}
		if p.isKeyword("WHERE") {
			p.advance()
			g, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			q.Where = g
		} else if p.isPunct("{") {
			g, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			q.Where = g
		} else {
			q.Where = &GroupPattern{}
		}
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, got %q", p.cur().text)
	}

	// Solution modifiers
	if p.isKeyword("GROUP") {
		p.advance()
		if !p.isKeyword("BY") {
			return nil, p.errf("expected BY after GROUP")
		}
		p.advance()
		for p.cur().kind == tVar {
			q.GroupBy = append(q.GroupBy, Variable(p.cur().text))
			p.advance()
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("GROUP BY requires variables")
		}
	}
	if p.isKeyword("ORDER") {
		p.advance()
		if !p.isKeyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		p.advance()
		for {
			switch {
			case p.isKeyword("ASC"), p.isKeyword("DESC"):
				desc := p.cur().text == "DESC"
				p.advance()
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				e, err := p.parseExpression()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: e, Desc: desc})
			case p.cur().kind == tVar:
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: ExprVar{Var: Variable(p.cur().text)}})
				p.advance()
			default:
				if len(q.OrderBy) == 0 {
					return nil, p.errf("expected ORDER BY criterion")
				}
				goto limits
			}
		}
	}
limits:
	for {
		switch {
		case p.isKeyword("LIMIT"):
			p.advance()
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case p.isKeyword("OFFSET"):
			p.advance()
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			if p.cur().kind != tEOF {
				return nil, p.errf("unexpected trailing token %q", p.cur().text)
			}
			return q, nil
		}
	}
}

// parseAggregate parses "( AGG ( [DISTINCT] expr|* ) AS ?v )"; the current
// token is the opening parenthesis.
func (p *parser) parseAggregate() (Aggregate, error) {
	var agg Aggregate
	if err := p.expectPunct("("); err != nil {
		return agg, err
	}
	switch {
	case p.isKeyword("COUNT"):
		agg.Func = AggCount
	case p.isKeyword("SUM"):
		agg.Func = AggSum
	case p.isKeyword("MIN"):
		agg.Func = AggMin
	case p.isKeyword("MAX"):
		agg.Func = AggMax
	case p.isKeyword("AVG"):
		agg.Func = AggAvg
	default:
		return agg, p.errf("expected aggregate function, got %q", p.cur().text)
	}
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return agg, err
	}
	if p.isKeyword("DISTINCT") {
		agg.Distinct = true
		p.advance()
	}
	if p.isPunct("*") {
		if agg.Func != AggCount {
			return agg, p.errf("'*' is only valid in COUNT")
		}
		p.advance()
	} else {
		e, err := p.parseExpression()
		if err != nil {
			return agg, err
		}
		agg.Arg = e
	}
	if err := p.expectPunct(")"); err != nil {
		return agg, err
	}
	if !p.isKeyword("AS") {
		return agg, p.errf("expected AS in aggregate projection")
	}
	p.advance()
	if p.cur().kind != tVar {
		return agg, p.errf("expected variable after AS")
	}
	agg.As = Variable(p.cur().text)
	p.advance()
	if err := p.expectPunct(")"); err != nil {
		return agg, err
	}
	return agg, nil
}

func (p *parser) parseInt() (int, error) {
	if p.cur().kind != tNumber {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(p.cur().text)
	if err != nil {
		return 0, p.errf("bad integer %q", p.cur().text)
	}
	p.advance()
	return n, nil
}

// parseGroup parses '{' ... '}'.
func (p *parser) parseGroup() (*GroupPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	for {
		switch {
		case p.isPunct("}"):
			p.advance()
			return g, nil
		case p.isKeyword("FILTER"):
			p.advance()
			e, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &Filter{Expr: e})
			if p.isPunct(".") {
				p.advance()
			}
		case p.isKeyword("BIND"):
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			expr, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if !p.isKeyword("AS") {
				return nil, p.errf("expected AS in BIND")
			}
			p.advance()
			if p.cur().kind != tVar {
				return nil, p.errf("expected variable after AS")
			}
			v := Variable(p.cur().text)
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &Bind{Expr: expr, Var: v})
			if p.isPunct(".") {
				p.advance()
			}
		case p.isKeyword("GRAPH"):
			p.advance()
			var name rdf.Term
			switch t := p.cur(); {
			case t.kind == tVar:
				name = Variable(t.text)
				p.advance()
			case t.kind == tIRI:
				name = rdf.IRI(t.text)
				p.advance()
			case t.kind == tPName:
				iri, err := p.prefixes.Expand(t.text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				name = iri
				p.advance()
			default:
				return nil, p.errf("expected graph name after GRAPH")
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &GraphPattern{Name: name, Group: sub})
			if p.isPunct(".") {
				p.advance()
			}
		case p.isKeyword("VALUES"):
			p.advance()
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, vals)
			if p.isPunct(".") {
				p.advance()
			}
		case p.isKeyword("OPTIONAL"):
			p.advance()
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &Optional{Group: sub})
			if p.isPunct(".") {
				p.advance()
			}
		case p.isPunct("{"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			// UNION chain?
			if p.isKeyword("UNION") {
				u := &Union{Left: sub}
				for p.isKeyword("UNION") {
					p.advance()
					right, err := p.parseGroup()
					if err != nil {
						return nil, err
					}
					if u.Right == nil {
						u.Right = right
					} else {
						u = &Union{Left: &GroupPattern{Elements: []PatternElement{u}}, Right: right}
					}
				}
				g.Elements = append(g.Elements, u)
			} else {
				g.Elements = append(g.Elements, &SubGroup{Group: sub})
			}
			if p.isPunct(".") {
				p.advance()
			}
		default:
			tps, err := p.parseTriplesBlock()
			if err != nil {
				return nil, err
			}
			if len(tps) == 0 {
				return nil, p.errf("unexpected token %q in group", p.cur().text)
			}
			g.Elements = append(g.Elements, &BGP{Patterns: tps})
		}
	}
}

// parseValues parses the body of a VALUES clause after the keyword:
// "?x { term… }" or "( ?x ?y ) { ( term… )… }". UNDEF leaves a cell nil.
func (p *parser) parseValues() (*Values, error) {
	v := &Values{}
	multi := false
	switch {
	case p.cur().kind == tVar:
		v.Vars = []Variable{Variable(p.cur().text)}
		p.advance()
	case p.isPunct("("):
		multi = true
		p.advance()
		for p.cur().kind == tVar {
			v.Vars = append(v.Vars, Variable(p.cur().text))
			p.advance()
		}
		if len(v.Vars) == 0 {
			return nil, p.errf("VALUES needs variables")
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected variable(s) after VALUES")
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.isPunct("}") {
		var row []rdf.Term
		if multi {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for !p.isPunct(")") {
				cell, err := p.parseValuesCell()
				if err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
			p.advance() // ')'
		} else {
			cell, err := p.parseValuesCell()
			if err != nil {
				return nil, err
			}
			row = []rdf.Term{cell}
		}
		if len(row) != len(v.Vars) {
			return nil, p.errf("VALUES row has %d cells for %d variables", len(row), len(v.Vars))
		}
		v.Rows = append(v.Rows, row)
	}
	p.advance() // '}'
	return v, nil
}

// parseValuesCell parses one VALUES cell: a term or UNDEF (nil).
func (p *parser) parseValuesCell() (rdf.Term, error) {
	if p.isKeyword("UNDEF") {
		p.advance()
		return nil, nil
	}
	t, err := p.parseTermNoVarCheck(true)
	if err != nil {
		return nil, err
	}
	if _, isVar := t.(Variable); isVar {
		return nil, p.errf("variables are not allowed in VALUES data")
	}
	return t, nil
}

// parseConstraint parses a FILTER constraint: '(' expr ')', EXISTS / NOT
// EXISTS, or a function call.
func (p *parser) parseConstraint() (Expression, error) {
	if p.isKeyword("EXISTS") || p.isKeyword("NOT") {
		return p.parseExists()
	}
	if p.isPunct("(") {
		p.advance()
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	// builtin or custom function call
	return p.parsePrimaryExpr()
}

// parseExists parses EXISTS { … } or NOT EXISTS { … }.
func (p *parser) parseExists() (Expression, error) {
	negate := false
	if p.isKeyword("NOT") {
		negate = true
		p.advance()
	}
	if !p.isKeyword("EXISTS") {
		return nil, p.errf("expected EXISTS")
	}
	p.advance()
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	return ExprExists{Group: g, Negate: negate}, nil
}

// parseTriplesBlock parses triple patterns until '}' , FILTER, OPTIONAL,
// '{' or EOF.
func (p *parser) parseTriplesBlock() ([]TriplePattern, error) {
	var out []TriplePattern
	for {
		if p.isPunct("}") || p.isKeyword("FILTER") || p.isKeyword("OPTIONAL") ||
			p.isKeyword("BIND") || p.isKeyword("VALUES") || p.isKeyword("GRAPH") ||
			p.isPunct("{") || p.cur().kind == tEOF {
			return out, nil
		}
		subj, err := p.parseTermNoVarCheck(false)
		if err != nil {
			return nil, err
		}
		// predicate-object list
		for {
			path, err := p.parsePathAlt()
			if err != nil {
				return nil, err
			}
			for {
				obj, err := p.parseTermNoVarCheck(true)
				if err != nil {
					return nil, err
				}
				out = append(out, TriplePattern{Subject: subj, Predicate: path, Object: obj})
				if p.isPunct(",") {
					p.advance()
					continue
				}
				break
			}
			if p.isPunct(";") {
				p.advance()
				// allow dangling ';' before '.' or '}'
				if p.isPunct(".") || p.isPunct("}") {
					break
				}
				continue
			}
			break
		}
		if p.isPunct(".") {
			p.advance()
			continue
		}
		return out, nil
	}
}

// parseTermNoVarCheck parses a subject/object term.
func (p *parser) parseTermNoVarCheck(allowLiteral bool) (rdf.Term, error) {
	t := p.cur()
	switch t.kind {
	case tVar:
		p.advance()
		return Variable(t.text), nil
	case tIRI:
		p.advance()
		return rdf.IRI(t.text), nil
	case tPName:
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.advance()
		return iri, nil
	case tString:
		if !allowLiteral {
			return nil, p.errf("literal not allowed in subject position")
		}
		p.advance()
		val := t.text
		switch {
		case p.cur().kind == tLang:
			lang := p.cur().text
			p.advance()
			return rdf.NewLangString(val, lang), nil
		case p.isPunct("^^"):
			p.advance()
			dt := p.cur()
			switch dt.kind {
			case tIRI:
				p.advance()
				return rdf.Literal{Value: val, Datatype: rdf.IRI(dt.text)}, nil
			case tPName:
				iri, err := p.prefixes.Expand(dt.text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				p.advance()
				return rdf.Literal{Value: val, Datatype: iri}, nil
			default:
				return nil, p.errf("expected datatype IRI")
			}
		}
		return rdf.NewString(val), nil
	case tNumber:
		if !allowLiteral {
			return nil, p.errf("literal not allowed in subject position")
		}
		p.advance()
		return numericLiteral(t.text), nil
	case tBoolean:
		if !allowLiteral {
			return nil, p.errf("literal not allowed in subject position")
		}
		p.advance()
		return rdf.NewBoolean(t.text == "true"), nil
	}
	return nil, p.errf("bad term %q", t.text)
}

func numericLiteral(text string) rdf.Literal {
	switch {
	case strings.ContainsAny(text, "eE"):
		return rdf.Literal{Value: text, Datatype: rdf.XSDDouble}
	case strings.Contains(text, "."):
		return rdf.Literal{Value: text, Datatype: rdf.XSDDecimal}
	default:
		return rdf.Literal{Value: text, Datatype: rdf.XSDInteger}
	}
}

// --- property paths ----------------------------------------------------------

func (p *parser) parsePathAlt() (PathExpr, error) {
	left, err := p.parsePathSeq()
	if err != nil {
		return nil, err
	}
	for p.isPunct("|") {
		p.advance()
		right, err := p.parsePathSeq()
		if err != nil {
			return nil, err
		}
		left = Alt{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePathSeq() (PathExpr, error) {
	left, err := p.parsePathEltOrInverse()
	if err != nil {
		return nil, err
	}
	for p.isPunct("/") {
		p.advance()
		right, err := p.parsePathEltOrInverse()
		if err != nil {
			return nil, err
		}
		left = Seq{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePathEltOrInverse() (PathExpr, error) {
	if p.isPunct("^") {
		p.advance()
		inner, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		return Inverse{Path: inner}, nil
	}
	return p.parsePathElt()
}

func (p *parser) parsePathElt() (PathExpr, error) {
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.isPunct("*"):
		p.advance()
		return Repeat{Path: prim, Min: 0, Max: -1}, nil
	case p.isPunct("+"):
		p.advance()
		return Repeat{Path: prim, Min: 1, Max: -1}, nil
	case p.isPunct("?"):
		p.advance()
		return Repeat{Path: prim, Min: 0, Max: 1}, nil
	}
	return prim, nil
}

func (p *parser) parsePathPrimary() (PathExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tIRI:
		p.advance()
		return Link{IRI: rdf.IRI(t.text)}, nil
	case t.kind == tPName:
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.advance()
		return Link{IRI: iri}, nil
	case t.kind == tKeyword && t.text == "A":
		p.advance()
		return Link{IRI: rdf.RDFType}, nil
	case t.kind == tVar:
		p.advance()
		return VarPath{Var: Variable(t.text)}, nil
	case p.isPunct("("):
		p.advance()
		inner, err := p.parsePathAlt()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errf("bad path element %q", t.text)
}

// --- expressions -------------------------------------------------------------

func (p *parser) parseExpression() (Expression, error) { return p.parseOr() }

func (p *parser) parseOr() (Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expression, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.isPunct("&&") {
		p.advance()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseRelational() (Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.isPunct(op) {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return ExprBinary{Op: op, Left: left, Right: right}, nil
		}
	}
	// IN / NOT IN desugar to equality disjunction/conjunction.
	negate := false
	if p.isKeyword("NOT") {
		nxt := p.toks[p.pos+1]
		if nxt.kind == tKeyword && nxt.text == "IN" {
			negate = true
			p.advance()
		} else {
			return left, nil
		}
	}
	if p.isKeyword("IN") {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var expr Expression
		for {
			item, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			var cmp Expression = ExprBinary{Op: "=", Left: left, Right: item}
			if negate {
				cmp = ExprBinary{Op: "!=", Left: left, Right: item}
			}
			if expr == nil {
				expr = cmp
			} else if negate {
				expr = ExprBinary{Op: "&&", Left: expr, Right: cmp}
			} else {
				expr = ExprBinary{Op: "||", Left: expr, Right: cmp}
			}
			if p.isPunct(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if expr == nil {
			return nil, p.errf("empty IN list")
		}
		return expr, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.cur().text
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := p.cur().text
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expression, error) {
	if p.isPunct("!") || p.isPunct("-") {
		op := p.cur().text
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: op, Expr: inner}, nil
	}
	return p.parsePrimaryExpr()
}

func (p *parser) parsePrimaryExpr() (Expression, error) {
	t := p.cur()
	switch {
	case p.isPunct("("):
		p.advance()
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tVar:
		p.advance()
		return ExprVar{Var: Variable(t.text)}, nil
	case t.kind == tKeyword && builtinFuncs[t.text]:
		name := t.text
		p.advance()
		args, err := p.parseArgList()
		if err != nil {
			return nil, err
		}
		return ExprCall{Name: name, Args: args}, nil
	case t.kind == tIRI, t.kind == tPName:
		var iri rdf.IRI
		if t.kind == tIRI {
			iri = rdf.IRI(t.text)
		} else {
			var err error
			iri, err = p.prefixes.Expand(t.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
		}
		p.advance()
		if p.isPunct("(") { // custom function call
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return ExprCall{IRI: iri, Args: args}, nil
		}
		return ExprConst{Term: iri}, nil
	case t.kind == tString:
		term, err := p.parseTermNoVarCheck(true)
		if err != nil {
			return nil, err
		}
		return ExprConst{Term: term}, nil
	case t.kind == tNumber:
		p.advance()
		return ExprConst{Term: numericLiteral(t.text)}, nil
	case t.kind == tBoolean:
		p.advance()
		return ExprConst{Term: rdf.NewBoolean(t.text == "true")}, nil
	}
	return nil, p.errf("bad expression token %q", t.text)
}

func (p *parser) parseArgList() ([]Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expression
	if p.isPunct(")") {
		p.advance()
		return args, nil
	}
	for {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.isPunct(",") {
			p.advance()
			continue
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}
