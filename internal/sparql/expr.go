package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// errUnbound signals evaluation over an unbound variable; per SPARQL it
// eliminates the solution in FILTER context.
var errUnbound = errors.New("sparql: unbound variable in expression")

// evalExpr evaluates an expression over one row. A variable is read by its
// column and resolved through the graph's terms.
func (e *Engine) evalExpr(ctx context.Context, expr Expression, row []store.ID) (rdf.Term, error) {
	switch v := expr.(type) {
	case ExprConst:
		return v.Term, nil

	case ExprVar:
		t := e.terms.term(row[e.ev.cols[v.Var]])
		if t == nil {
			return nil, errUnbound
		}
		return t, nil

	case ExprUnary:
		inner, err := e.evalExpr(ctx, v.Expr, row)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "!":
			ok, err := effectiveBool(inner)
			if err != nil {
				return nil, err
			}
			return rdf.NewBoolean(!ok), nil
		case "-":
			lit, ok := inner.(rdf.Literal)
			if !ok || !lit.IsNumeric() {
				return nil, fmt.Errorf("sparql: unary minus on non-numeric %s", inner)
			}
			f, err := lit.Float()
			if err != nil {
				return nil, err
			}
			return rdf.NewDouble(-f), nil
		}
		return nil, fmt.Errorf("sparql: unknown unary op %q", v.Op)

	case ExprBinary:
		return e.evalBinary(ctx, v, row)

	case ExprCall:
		return e.evalCall(ctx, v, row)

	case ExprExists:
		sols, err := e.evalGroup(ctx, v.Group, table{width: len(row), n: 1, ids: row})
		if err != nil {
			return nil, err
		}
		found := sols.n > 0
		if v.Negate {
			found = !found
		}
		return rdf.NewBoolean(found), nil
	}
	return nil, fmt.Errorf("sparql: unknown expression %T", expr)
}

func (e *Engine) evalBinary(ctx context.Context, v ExprBinary, row []store.ID) (rdf.Term, error) {
	// Short-circuit logical operators; SPARQL's three-valued logic lets one
	// errored side be recovered by the other.
	switch v.Op {
	case "&&", "||":
		lt, lerr := e.evalExpr(ctx, v.Left, row)
		var lval bool
		if lerr == nil {
			lval, lerr = effectiveBool(lt)
		}
		rt, rerr := e.evalExpr(ctx, v.Right, row)
		var rval bool
		if rerr == nil {
			rval, rerr = effectiveBool(rt)
		}
		if v.Op == "&&" {
			switch {
			case lerr == nil && rerr == nil:
				return rdf.NewBoolean(lval && rval), nil
			case lerr == nil && !lval, rerr == nil && !rval:
				return rdf.NewBoolean(false), nil
			default:
				return nil, firstErr(lerr, rerr)
			}
		}
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lval || rval), nil
		case lerr == nil && lval, rerr == nil && rval:
			return rdf.NewBoolean(true), nil
		default:
			return nil, firstErr(lerr, rerr)
		}
	}

	lt, err := e.evalExpr(ctx, v.Left, row)
	if err != nil {
		return nil, err
	}
	rt, err := e.evalExpr(ctx, v.Right, row)
	if err != nil {
		return nil, err
	}

	switch v.Op {
	case "=", "!=":
		eq, err := termsEqual(lt, rt)
		if err != nil {
			return nil, err
		}
		if v.Op == "!=" {
			eq = !eq
		}
		return rdf.NewBoolean(eq), nil
	case "<", "<=", ">", ">=":
		ll, lok := lt.(rdf.Literal)
		rl, rok := rt.(rdf.Literal)
		if !lok || !rok {
			return nil, fmt.Errorf("sparql: ordering comparison on non-literals %s %s", lt, rt)
		}
		cmp, ok := rdf.CompareLiterals(ll, rl)
		if !ok {
			return nil, fmt.Errorf("sparql: incomparable literals %s %s", ll, rl)
		}
		var res bool
		switch v.Op {
		case "<":
			res = cmp < 0
		case "<=":
			res = cmp <= 0
		case ">":
			res = cmp > 0
		case ">=":
			res = cmp >= 0
		}
		return rdf.NewBoolean(res), nil
	case "+", "-", "*", "/":
		lf, rf, err := numericPair(lt, rt)
		if err != nil {
			return nil, err
		}
		var out float64
		switch v.Op {
		case "+":
			out = lf + rf
		case "-":
			out = lf - rf
		case "*":
			out = lf * rf
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("sparql: division by zero")
			}
			out = lf / rf
		}
		if out == math.Trunc(out) && math.Abs(out) < 1e15 &&
			isIntegerLit(lt) && isIntegerLit(rt) && v.Op != "/" {
			return rdf.NewInteger(int64(out)), nil
		}
		return rdf.NewDouble(out), nil
	}
	return nil, fmt.Errorf("sparql: unknown binary op %q", v.Op)
}

func isIntegerLit(t rdf.Term) bool {
	l, ok := t.(rdf.Literal)
	if !ok {
		return false
	}
	_, err := l.Int()
	return err == nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return errors.New("sparql: logic error")
}

// termsEqual implements SPARQL '=' semantics: value comparison for literals
// of comparable types, term identity otherwise.
func termsEqual(a, b rdf.Term) (bool, error) {
	la, aok := a.(rdf.Literal)
	lb, bok := b.(rdf.Literal)
	if aok && bok {
		if cmp, ok := rdf.CompareLiterals(la, lb); ok {
			return cmp == 0, nil
		}
		if la.Datatype == lb.Datatype && la.Lang == lb.Lang {
			return la.Value == lb.Value, nil
		}
		return false, fmt.Errorf("sparql: incomparable literals %s %s", la, lb)
	}
	if aok != bok {
		return false, nil
	}
	return a.Equal(b), nil
}

func numericPair(a, b rdf.Term) (float64, float64, error) {
	la, aok := a.(rdf.Literal)
	lb, bok := b.(rdf.Literal)
	if !aok || !bok || !la.IsNumeric() || !lb.IsNumeric() {
		return 0, 0, fmt.Errorf("sparql: arithmetic on non-numeric operands %s %s", a, b)
	}
	fa, err := la.Float()
	if err != nil {
		return 0, 0, err
	}
	fb, err := lb.Float()
	if err != nil {
		return 0, 0, err
	}
	return fa, fb, nil
}

// effectiveBool computes the SPARQL effective boolean value.
func effectiveBool(t rdf.Term) (bool, error) {
	l, ok := t.(rdf.Literal)
	if !ok {
		return false, fmt.Errorf("sparql: no boolean value for %s", t)
	}
	switch {
	case l.Datatype == rdf.XSDBoolean:
		return l.Bool()
	case l.IsNumeric():
		f, err := l.Float()
		if err != nil {
			return false, nil // invalid lexical form => false
		}
		return f != 0, nil
	case l.Datatype == rdf.XSDString || l.Lang != "":
		return l.Value != "", nil
	}
	return false, fmt.Errorf("sparql: no boolean value for %s", t)
}

func (e *Engine) evalCall(ctx context.Context, c ExprCall, row []store.ID) (rdf.Term, error) {
	// Custom extension function.
	if c.IRI != "" {
		fn, ok := e.funcs[c.IRI]
		if !ok {
			return nil, fmt.Errorf("sparql: unknown function %s", c.IRI)
		}
		args := make([]rdf.Term, len(c.Args))
		for i, a := range c.Args {
			v, err := e.evalExpr(ctx, a, row)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(e.store.View(), args)
	}

	// BOUND takes a variable without evaluating it.
	if c.Name == "BOUND" {
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("sparql: BOUND takes 1 argument")
		}
		ev, ok := c.Args[0].(ExprVar)
		if !ok {
			return nil, fmt.Errorf("sparql: BOUND argument must be a variable")
		}
		return rdf.NewBoolean(row[e.ev.cols[ev.Var]] != store.NoID), nil
	}

	// COALESCE returns the first argument that evaluates without error.
	if c.Name == "COALESCE" {
		for _, a := range c.Args {
			if v, err := e.evalExpr(ctx, a, row); err == nil {
				return v, nil
			}
		}
		return nil, fmt.Errorf("sparql: COALESCE has no valid argument")
	}

	// IF evaluates lazily.
	if c.Name == "IF" {
		if len(c.Args) != 3 {
			return nil, fmt.Errorf("sparql: IF takes 3 arguments")
		}
		cond, err := e.evalExpr(ctx, c.Args[0], row)
		if err != nil {
			return nil, err
		}
		ok, err := effectiveBool(cond)
		if err != nil {
			return nil, err
		}
		if ok {
			return e.evalExpr(ctx, c.Args[1], row)
		}
		return e.evalExpr(ctx, c.Args[2], row)
	}

	args := make([]rdf.Term, len(c.Args))
	for i, a := range c.Args {
		v, err := e.evalExpr(ctx, a, row)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sparql: %s takes %d argument(s)", c.Name, n)
		}
		return nil
	}
	str := func(t rdf.Term) (string, error) {
		switch v := t.(type) {
		case rdf.Literal:
			return v.Value, nil
		case rdf.IRI:
			return string(v), nil
		}
		return "", fmt.Errorf("sparql: %s is not string-valued", t)
	}

	switch c.Name {
	case "STR":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := str(args[0])
		if err != nil {
			return nil, err
		}
		return rdf.NewString(s), nil
	case "LANG":
		if err := need(1); err != nil {
			return nil, err
		}
		l, ok := args[0].(rdf.Literal)
		if !ok {
			return nil, fmt.Errorf("sparql: LANG on non-literal")
		}
		return rdf.NewString(l.Lang), nil
	case "LANGMATCHES":
		if err := need(2); err != nil {
			return nil, err
		}
		tag, err1 := str(args[0])
		rng, err2 := str(args[1])
		if err1 != nil || err2 != nil {
			return nil, firstErr(err1, err2)
		}
		if rng == "*" {
			return rdf.NewBoolean(tag != ""), nil
		}
		return rdf.NewBoolean(strings.EqualFold(tag, rng) ||
			strings.HasPrefix(strings.ToLower(tag), strings.ToLower(rng)+"-")), nil
	case "DATATYPE":
		if err := need(1); err != nil {
			return nil, err
		}
		l, ok := args[0].(rdf.Literal)
		if !ok {
			return nil, fmt.Errorf("sparql: DATATYPE on non-literal")
		}
		if l.Lang != "" {
			return rdf.RDFLangString, nil
		}
		return l.Datatype, nil
	case "ISIRI", "ISURI":
		if err := need(1); err != nil {
			return nil, err
		}
		_, ok := args[0].(rdf.IRI)
		return rdf.NewBoolean(ok), nil
	case "ISBLANK":
		if err := need(1); err != nil {
			return nil, err
		}
		return rdf.NewBoolean(args[0].Kind() == rdf.KindBlank), nil
	case "ISLITERAL":
		if err := need(1); err != nil {
			return nil, err
		}
		return rdf.NewBoolean(args[0].Kind() == rdf.KindLiteral), nil
	case "ISNUMERIC":
		if err := need(1); err != nil {
			return nil, err
		}
		l, ok := args[0].(rdf.Literal)
		return rdf.NewBoolean(ok && l.IsNumeric()), nil
	case "SAMETERM":
		if err := need(2); err != nil {
			return nil, err
		}
		return rdf.NewBoolean(args[0].Equal(args[1])), nil
	case "REGEX":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sparql: REGEX takes 2 or 3 arguments")
		}
		text, err1 := str(args[0])
		pat, err2 := str(args[1])
		if err1 != nil || err2 != nil {
			return nil, firstErr(err1, err2)
		}
		if len(args) == 3 {
			flags, _ := str(args[2])
			if strings.Contains(flags, "i") {
				pat = "(?i)" + pat
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("sparql: bad REGEX pattern: %w", err)
		}
		return rdf.NewBoolean(re.MatchString(text)), nil
	case "CONTAINS", "STRSTARTS", "STRENDS":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err1 := str(args[0])
		s, err2 := str(args[1])
		if err1 != nil || err2 != nil {
			return nil, firstErr(err1, err2)
		}
		var res bool
		switch c.Name {
		case "CONTAINS":
			res = strings.Contains(a, s)
		case "STRSTARTS":
			res = strings.HasPrefix(a, s)
		case "STRENDS":
			res = strings.HasSuffix(a, s)
		}
		return rdf.NewBoolean(res), nil
	case "STRLEN":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := str(args[0])
		if err != nil {
			return nil, err
		}
		return rdf.NewInteger(int64(len([]rune(s)))), nil
	case "UCASE", "LCASE":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := str(args[0])
		if err != nil {
			return nil, err
		}
		if c.Name == "UCASE" {
			return rdf.NewString(strings.ToUpper(s)), nil
		}
		return rdf.NewString(strings.ToLower(s)), nil
	case "ABS", "CEIL", "FLOOR", "ROUND":
		if err := need(1); err != nil {
			return nil, err
		}
		l, ok := args[0].(rdf.Literal)
		if !ok || !l.IsNumeric() {
			return nil, fmt.Errorf("sparql: %s on non-numeric", c.Name)
		}
		f, err := l.Float()
		if err != nil {
			return nil, err
		}
		switch c.Name {
		case "ABS":
			f = math.Abs(f)
		case "CEIL":
			f = math.Ceil(f)
		case "FLOOR":
			f = math.Floor(f)
		case "ROUND":
			f = math.Round(f)
		}
		if l.Datatype == rdf.XSDInteger {
			return rdf.NewInteger(int64(f)), nil
		}
		return rdf.NewDouble(f), nil
	case "XSDINTEGER":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := str(args[0])
		if err != nil {
			return nil, err
		}
		return rdf.Literal{Value: strings.TrimSpace(s), Datatype: rdf.XSDInteger}, nil
	case "XSDDOUBLE":
		if err := need(1); err != nil {
			return nil, err
		}
		s, err := str(args[0])
		if err != nil {
			return nil, err
		}
		return rdf.Literal{Value: strings.TrimSpace(s), Datatype: rdf.XSDDouble}, nil
	}
	return nil, fmt.Errorf("sparql: unimplemented function %s", c.Name)
}
