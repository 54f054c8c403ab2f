package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Aggregate support: SELECT (COUNT(?x) AS ?n) … GROUP BY ?g, with COUNT,
// SUM, MIN, MAX and AVG (optionally DISTINCT), plus COUNT(*). The
// middleware uses these for the paper's "aggregate list of chemicals from
// these sites".

// AggFunc names an aggregate function.
type AggFunc string

// Supported aggregate functions.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggAvg   AggFunc = "AVG"
)

// Aggregate is one projected aggregate expression.
type Aggregate struct {
	Func     AggFunc
	Arg      Expression // nil for COUNT(*)
	Distinct bool
	As       Variable
}

func (a Aggregate) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("(%s(%s%s) AS %s)", a.Func, d, arg, a.As)
}

// hasAggregates reports whether the query needs grouped evaluation.
func (q *Query) hasAggregates() bool {
	return len(q.Aggregates) > 0 || len(q.GroupBy) > 0
}

// evalAggregates groups the rows by their GROUP BY columns — a group is a
// tuple of IDs — and computes each aggregate, producing one row per group:
// the grouping columns and the aggregates' aliases set, the rest unbound.
// Groups come out in the order of their keys' N-Triples forms.
func (e *Engine) evalAggregates(ctx context.Context, q *Query, in table) (table, error) {
	by := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		by[i] = e.ev.cols[v]
	}
	index := map[string]int{}
	var groups [][]int // the row numbers of each group
	var key []byte
	for i := 0; i < in.n; i++ {
		key = tupleKey(key[:0], in.row(i), by)
		gi, ok := index[string(key)]
		if !ok {
			gi = len(groups)
			index[string(key)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	// With no GROUP BY and no solutions there is still one (empty) group for
	// COUNT to report 0 over.
	if len(by) == 0 && len(groups) == 0 {
		groups = [][]int{nil}
	}
	order := make([]int, len(groups))
	names := make([]string, len(groups))
	for gi, rows := range groups {
		order[gi] = gi
		var sb strings.Builder
		for _, c := range by {
			if t := e.terms.term(in.ids[rows[0]*in.width+c]); t != nil {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\x00')
		}
		names[gi] = sb.String()
	}
	sort.SliceStable(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })

	out := table{width: in.width}
	unbound := make([]store.ID, in.width)
	for _, gi := range order {
		rows := groups[gi]
		vals := make([]store.ID, len(q.Aggregates))
		for i, agg := range q.Aggregates {
			val, err := e.computeAggregate(ctx, agg, in, rows)
			if err != nil {
				return table{}, err
			}
			if val != nil {
				vals[i] = e.idOf(val)
			}
		}
		row := out.add(unbound)
		for _, c := range by {
			row[c] = in.ids[rows[0]*in.width+c]
		}
		for i, agg := range q.Aggregates {
			row[e.ev.cols[agg.As]] = vals[i]
		}
	}
	return out, nil
}

func (e *Engine) computeAggregate(ctx context.Context, agg Aggregate, in table, rows []int) (rdf.Term, error) {
	if agg.Arg == nil { // COUNT(*)
		return rdf.NewInteger(int64(len(rows))), nil
	}
	// Collect the argument values (skipping rows where evaluation errors,
	// per SPARQL aggregate semantics).
	var vals []rdf.Term
	var seen map[rdf.Term]struct{}
	if agg.Distinct {
		seen = map[rdf.Term]struct{}{}
	}
	for _, r := range rows {
		v, err := e.evalExpr(ctx, agg.Arg, in.row(r))
		if err != nil {
			continue
		}
		if agg.Distinct {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
		}
		vals = append(vals, v)
	}

	switch agg.Func {
	case AggCount:
		return rdf.NewInteger(int64(len(vals))), nil
	case AggSum, AggAvg:
		sum := 0.0
		n := 0
		allInt := true
		for _, v := range vals {
			l, ok := v.(rdf.Literal)
			if !ok || !l.IsNumeric() {
				continue
			}
			f, err := l.Float()
			if err != nil {
				continue
			}
			if _, err := l.Int(); err != nil {
				allInt = false
			}
			sum += f
			n++
		}
		if agg.Func == AggAvg {
			if n == 0 {
				return nil, nil
			}
			return rdf.NewDouble(sum / float64(n)), nil
		}
		if allInt {
			return rdf.NewInteger(int64(sum)), nil
		}
		return rdf.NewDouble(sum), nil
	case AggMin, AggMax:
		var best *rdf.Literal
		for _, v := range vals {
			l, ok := v.(rdf.Literal)
			if !ok {
				continue
			}
			if best == nil {
				b := l
				best = &b
				continue
			}
			cmp, ok := rdf.CompareLiterals(l, *best)
			if !ok {
				continue
			}
			if (agg.Func == AggMin && cmp < 0) || (agg.Func == AggMax && cmp > 0) {
				b := l
				best = &b
			}
		}
		if best == nil {
			return nil, nil
		}
		return *best, nil
	}
	return nil, fmt.Errorf("sparql: unknown aggregate %s", agg.Func)
}
