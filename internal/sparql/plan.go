package sparql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file implements the selectivity-driven BGP planner. Before a basic
// graph pattern is joined, its triple patterns are greedily reordered so the
// cheapest remaining pattern (by estimated result cardinality against the
// store's per-position counters) runs next, and patterns connected to
// already-bound variables are strongly preferred over Cartesian products.
// The estimates come from store.EstimateIDs, which is O(1) per pattern, so
// planning cost is negligible next to evaluation.

// Cost-model tuning constants.
const (
	// boundVarShrink divides a pattern's estimate once per position holding
	// an already-bound variable: a bound position acts like an extra
	// constant, but we don't know its value at plan time, so we assume it
	// cuts the candidate set by this factor.
	boundVarShrink = 4.0
	// cartesianPenalty multiplies the cost of a pattern that shares no
	// variable with the bound set — executing it would form a Cartesian
	// product with everything joined so far.
	cartesianPenalty = 1000.0
	// pathCostFactor scales the store size into the cost of a composite
	// property path (sequences, alternations, closures), whose evaluation
	// may touch a large fraction of the graph; they are scheduled late so
	// their endpoints arrive as bound as possible.
	pathCostFactor = 10.0
)

// PlanStep is one scheduled triple pattern.
type PlanStep struct {
	// Pattern is the triple pattern to execute at this position.
	Pattern TriplePattern
	// Index is the pattern's position in the original BGP (0-based).
	Index int
	// Estimate is the planner's cost estimate at selection time.
	Estimate float64
}

// Plan is a selectivity-ordered execution schedule for one BGP.
type Plan struct {
	Steps []PlanStep
	// Reordered reports whether the schedule deviates from textual order.
	Reordered bool
}

// Patterns returns the scheduled patterns in execution order.
func (p Plan) Patterns() []TriplePattern {
	out := make([]TriplePattern, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.Pattern
	}
	return out
}

// Explain renders the plan in EXPLAIN style, one line per step with the
// original pattern index and the cost estimate that selected it.
func (p Plan) Explain() string {
	var sb strings.Builder
	if p.Reordered {
		sb.WriteString("BGP plan (reordered):\n")
	} else {
		sb.WriteString("BGP plan (textual order):\n")
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&sb, "  %d. [pattern %d, est %.4g] %s\n", i+1, s.Index, s.Estimate, s.Pattern)
	}
	return sb.String()
}

// patternVars adds the variables of tp (subject, path, object) to out.
func patternVars(tp TriplePattern, out map[Variable]struct{}) {
	patternVarsDo(tp, func(v Variable) { out[v] = struct{}{} })
}

// isCompositePath reports whether the pattern's predicate needs the
// term-level path evaluator (anything but a plain IRI link or a predicate
// variable).
func isCompositePath(p PathExpr) bool {
	switch p.(type) {
	case Link, VarPath:
		return false
	default:
		return true
	}
}

// sharesVar reports whether the pattern mentions any variable in bound.
func sharesVar(tp TriplePattern, bound map[Variable]struct{}) bool {
	vars := make(map[Variable]struct{}, 3)
	patternVars(tp, vars)
	for v := range vars {
		if _, ok := bound[v]; ok {
			return true
		}
	}
	return false
}

// hasVar reports whether the pattern mentions any variable at all.
func hasVar(tp TriplePattern) bool {
	vars := make(map[Variable]struct{}, 3)
	patternVars(tp, vars)
	return len(vars) > 0
}

// estimatePattern computes the cost of running tp next, given the set of
// variables bound by previously scheduled patterns.
func estimatePattern(st store.Reader, tp TriplePattern, bound map[Variable]struct{}) float64 {
	var cost float64
	if isCompositePath(tp.Predicate) {
		// Closures and sequences can traverse a large share of the graph;
		// their true cost is unknowable in O(1), so treat them as heavy.
		cost = float64(st.Len())*pathCostFactor + 1
	} else {
		// Resolve constant positions to dictionary IDs; a constant that was
		// never interned matches nothing, which makes the pattern maximally
		// selective — scheduling it first short-circuits the whole BGP.
		var sid, pid, oid store.ID
		lookup := func(t rdf.Term) (store.ID, bool) {
			id, ok := st.LookupID(t)
			if !ok {
				return store.NoID, false
			}
			return id, true
		}
		if _, isVar := tp.Subject.(Variable); !isVar {
			id, ok := lookup(tp.Subject)
			if !ok {
				return 0
			}
			sid = id
		}
		if link, ok := tp.Predicate.(Link); ok {
			id, ok := lookup(link.IRI)
			if !ok {
				return 0
			}
			pid = id
		}
		if _, isVar := tp.Object.(Variable); !isVar {
			id, ok := lookup(tp.Object)
			if !ok {
				return 0
			}
			oid = id
		}
		cost = float64(st.EstimateIDs(sid, pid, oid))
		// Bound variables act as constants whose value we don't know yet:
		// assume each shrinks the match set.
		shrink := func(t rdf.Term) {
			if v, ok := t.(Variable); ok {
				if _, b := bound[v]; b {
					cost /= boundVarShrink
				}
			}
		}
		shrink(tp.Subject)
		if vp, ok := tp.Predicate.(VarPath); ok {
			shrink(vp.Var)
		}
		shrink(tp.Object)
	}
	if len(bound) > 0 && hasVar(tp) && !sharesVar(tp, bound) {
		cost = cost*cartesianPenalty + cartesianPenalty
	}
	return cost
}

// PlanBGP schedules the patterns of one BGP greedily by estimated cost.
// bound holds variables already bound by the enclosing group (may be nil).
// Ties keep textual order, so a store with uniform statistics degrades to
// the old behavior rather than an arbitrary shuffle.
func PlanBGP(st store.Reader, patterns []TriplePattern, bound map[Variable]struct{}) Plan {
	n := len(patterns)
	plan := Plan{Steps: make([]PlanStep, 0, n)}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	boundNow := make(map[Variable]struct{}, len(bound)+2*n)
	for v := range bound {
		boundNow[v] = struct{}{}
	}
	for len(remaining) > 0 {
		bestPos := 0
		bestCost := estimatePattern(st, patterns[remaining[0]], boundNow)
		for pos := 1; pos < len(remaining); pos++ {
			c := estimatePattern(st, patterns[remaining[pos]], boundNow)
			if c < bestCost {
				bestCost, bestPos = c, pos
			}
		}
		idx := remaining[bestPos]
		plan.Steps = append(plan.Steps, PlanStep{Pattern: patterns[idx], Index: idx, Estimate: bestCost})
		patternVars(patterns[idx], boundNow)
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}
	for i, s := range plan.Steps {
		if s.Index != i {
			plan.Reordered = true
			break
		}
	}
	return plan
}

// Explain parses src and returns the EXPLAIN rendering of every BGP plan in
// the query, in pattern-tree order, with a line for every FILTER saying where
// in its group it runs. It does not evaluate the query.
func (e *Engine) Explain(src string) (string, error) {
	q, err := ParseQuery(src, nil)
	if err != nil {
		return "", err
	}
	e = e.pinned(q)
	var sb strings.Builder
	e.explainGroup(q.Where, make(map[Variable]struct{}), &sb)
	if sb.Len() == 0 {
		return "no basic graph patterns\n", nil
	}
	return sb.String(), nil
}

// explainGroup walks the group tree planning each BGP with the variables
// that earlier elements of the same group would have bound.
func (e *Engine) explainGroup(g *GroupPattern, bound map[Variable]struct{}, sb *strings.Builder) {
	probes := e.probeSpecs(g)
	var late []*Filter
	for _, el := range g.Elements {
		switch v := el.(type) {
		case *BGP:
			// The probes run: where one seeds the join, its answer is the
			// plan's input.
			for _, sd := range e.takeProbes(context.Background(), &probes, v, func(pv Variable) bool { _, ok := bound[pv]; return ok }) {
				sb.WriteString(sd.String() + "\n")
				if sd.unused == "" {
					bound[sd.v] = struct{}{}
				}
			}
			plan := PlanBGP(e.store, v.Patterns, bound)
			sb.WriteString(plan.Explain())
			for _, tp := range v.Patterns {
				patternVars(tp, bound)
			}
		case *Filter:
			if e.ev.late[v] {
				late = append(late, v)
			} else {
				fmt.Fprintf(sb, "FILTER %s: runs where it stands\n", v.Expr)
			}
		case *Optional:
			e.explainGroup(v.Group, bound, sb)
		case *Union:
			e.explainGroup(v.Left, bound, sb)
			e.explainGroup(v.Right, bound, sb)
		case *SubGroup:
			e.explainGroup(v.Group, bound, sb)
		case *GraphPattern:
			e.explainGroup(v.Group, bound, sb)
		case *Bind:
			bound[v.Var] = struct{}{}
		case *Values:
			for _, vv := range v.Vars {
				bound[vv] = struct{}{}
			}
		}
	}
	for _, f := range late {
		fmt.Fprintf(sb, "FILTER %s: runs at the end of its group (a variable of it may be unbound where it stands)\n", f.Expr)
	}
}
