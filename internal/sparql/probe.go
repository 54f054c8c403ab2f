package sparql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Index probes: filter and refine. An extension function can be registered
// with a Prober, which answers from an index which terms can possibly satisfy
// a FILTER over that function. When a group holds such a FILTER on a variable
// one of its BGPs binds, the BGP starts from the probe's candidates instead
// of discovering the variable's values by scanning, and the FILTER — left
// where it is — does the exact test on what the join kept. The probe only
// ever has to be a superset of the rows the FILTER would pass, so it decides
// nothing: a query answers the same with and without it.
//
// A probe is asked for a top-level conjunct of a FILTER of the group of the
// form
//
//	f(?v, K)   or   f(K, ?v)              f a relation
//	f(?v, K) < r,  <= r,  r > f(…), r >= f(…)      f a measure
//
// with K a constant IRI or blank node and r a finite numeric constant, at the
// BGP element of the same group that has ?v as the subject or object of a
// plain (non-path) pattern — provided no variable of that BGP is bound on the
// way in, by any incoming row. Such a BGP would find its first rows by a scan,
// once per incoming row; the candidates replace that scan when there are no
// more of them than the cheapest scan would read, so seeding never makes a
// join read more than it did. A BGP that joins the incoming rows (one that
// follows an OPTIONAL binding ?v's neighbours, say) is left alone: starting
// it from the candidates would multiply every row by every candidate.
// Everything else — two variables, a conjunct under || or !, a variable bound
// only inside an OPTIONAL — is evaluated as before.

// Prober is the index side of an extension function.
type Prober struct {
	// Measure tells how the function's value bounds a row: false for a
	// relation (the FILTER passes rows where it is true), true for a
	// non-negative measure compared against an upper bound.
	Measure bool
	// Candidates returns, in ascending order, the IDs in at's dictionary of
	// every term t for which f(t, k) or f(k, t) can be true (a relation) or at
	// most r (a measure; r is 0 for a relation). It may return more, never
	// fewer.
	Candidates func(at store.StoreView, k rdf.Term, r float64) []store.ID
}

// RegisterProber attaches an index prober to the function registered under
// iri (see RegisterFunc).
func (e *Engine) RegisterProber(iri rdf.IRI, p Prober) { e.probers[iri] = p }

// probeSpec is one probe a group's FILTERs allow, before it has run.
type probeSpec struct {
	v       Variable
	fn      rdf.IRI
	k       rdf.Term
	r       float64
	measure bool // the prober's Measure: r is a bound, not a filler
}

// probeSeed is a probe that has run: ids are the only values of v worth
// joining.
type probeSeed struct {
	probeSpec
	ids []store.ID
	// unused says why the join does not start from ids, when it does not.
	unused string
}

// String is the probe's line in EXPLAIN output.
func (sd probeSeed) String() string {
	line := fmt.Sprintf("spatial probe: %d candidates for %s from %s(%s, %s)", len(sd.ids), sd.v, sd.fn, sd.v, sd.k)
	if sd.measure {
		line += " within " + strconv.FormatFloat(sd.r, 'g', -1, 64)
	}
	if sd.unused != "" {
		line += " — not used, " + sd.unused
	}
	return line
}

// probeSpecs lists the probes the FILTER elements of g allow.
func (e *Engine) probeSpecs(g *GroupPattern) []probeSpec {
	if len(e.probers) == 0 {
		return nil
	}
	var out []probeSpec
	var conjunct func(x Expression)
	conjunct = func(x Expression) {
		if b, ok := x.(ExprBinary); ok && b.Op == "&&" {
			conjunct(b.Left)
			conjunct(b.Right)
			return
		}
		if sp, ok := e.matchProbe(x); ok {
			out = append(out, sp)
		}
	}
	for _, el := range g.Elements {
		if f, ok := el.(*Filter); ok {
			conjunct(f.Expr)
		}
	}
	return out
}

// matchProbe recognizes one conjunct of the forms listed at the top.
func (e *Engine) matchProbe(x Expression) (probeSpec, bool) {
	var call Expression
	var bound Expression
	switch b, _ := x.(ExprBinary); b.Op {
	case "<", "<=":
		call, bound = b.Left, b.Right
	case ">", ">=":
		call, bound = b.Right, b.Left
	default:
		call = x
	}
	c, ok := call.(ExprCall)
	if !ok || c.IRI == "" || len(c.Args) != 2 {
		return probeSpec{}, false
	}
	p, ok := e.probers[c.IRI]
	if !ok || p.Measure != (bound != nil) {
		return probeSpec{}, false
	}
	sp := probeSpec{fn: c.IRI, measure: p.Measure}
	if p.Measure {
		lit, ok := bound.(ExprConst)
		if !ok {
			return probeSpec{}, false
		}
		num, ok := lit.Term.(rdf.Literal)
		if !ok || !num.IsNumeric() {
			return probeSpec{}, false
		}
		r, err := num.Float()
		if err != nil || math.IsNaN(r) || math.IsInf(r, 0) {
			return probeSpec{}, false
		}
		sp.r = r
	}
	for i, a := range c.Args {
		v, isVar := a.(ExprVar)
		k, isConst := c.Args[1-i].(ExprConst)
		if isVar && isConst && k.Term.Kind() != rdf.KindLiteral {
			sp.v, sp.k = v.Var, k.Term
			return sp, true
		}
	}
	return probeSpec{}, false
}

// bindsVar reports whether every solution of bgp binds v to a stored term:
// v is the subject or object of a pattern the ID-space join executes.
func bindsVar(bgp *BGP, v Variable) bool {
	for _, tp := range bgp.Patterns {
		if isCompositePath(tp.Predicate) {
			continue
		}
		if tp.Subject == rdf.Term(v) || tp.Object == rdf.Term(v) {
			return true
		}
	}
	return false
}

// takeProbes runs the probes of specs that belong at bgp — it binds the
// probe's variable, and no variable of it is bound on the way in (bound says
// which are) — and removes them from specs: a probe is asked once, at the
// first BGP that can use it. The join starts from a probe's candidates when
// they are no more than the BGP's cheapest pattern would read unprobed, and
// from those of one probe only: the candidates of a second would multiply the
// first's. The probes that lose are returned too, marked, for EXPLAIN.
func (e *Engine) takeProbes(ctx context.Context, specs *[]probeSpec, bgp *BGP, bound func(Variable) bool) []probeSeed {
	if !slices.ContainsFunc(*specs, func(sp probeSpec) bool { return bindsVar(bgp, sp.v) }) {
		return nil
	}
	vars := make(map[Variable]struct{})
	scan := math.Inf(1)
	for _, tp := range bgp.Patterns {
		patternVars(tp, vars)
		scan = math.Min(scan, estimatePattern(e.store, tp, nil))
	}
	for v := range vars {
		if bound(v) {
			return nil
		}
	}
	var seeds []probeSeed
	seeded := false
	kept := (*specs)[:0]
	for _, sp := range *specs {
		if !bindsVar(bgp, sp.v) {
			kept = append(kept, sp)
			continue
		}
		_, span := obs.StartSpan(ctx, "sparql.probe")
		sd := probeSeed{probeSpec: sp, ids: e.candidates(sp)}
		switch {
		case float64(len(sd.ids)) > scan:
			sd.unused = fmt.Sprintf("a scan reads %.4g", scan)
		case seeded:
			sd.unused = "the join starts from another probe"
		default:
			seeded = true
		}
		if span != nil {
			span.SetAttr("probe", sd.String())
			span.Add("candidates", int64(len(sd.ids)))
		}
		span.End()
		seeds = append(seeds, sd)
	}
	*specs = kept
	return seeds
}

// candidates asks sp's prober, once per evaluation: a group inside an EXISTS
// is evaluated for every row the FILTER sees, and the index's answer for the
// same constants does not change between them.
func (e *Engine) candidates(sp probeSpec) []store.ID {
	if ids, ok := e.probed[sp]; ok {
		return ids
	}
	ids := e.probers[sp.fn].Candidates(e.store.View(), sp.k, sp.r)
	if e.probed == nil {
		e.probed = make(map[probeSpec][]store.ID)
	}
	e.probed[sp] = ids
	return ids
}

// seed starts the join from a probe's candidates: every row — none of which
// holds a value in col — becomes one copy per candidate.
func seed(in table, col int, ids []store.ID) table {
	out := table{width: in.width, ids: make([]store.ID, 0, len(in.ids)*len(ids))}
	for i := 0; i < in.n; i++ {
		for _, id := range ids {
			out.add(in.row(i))[col] = id
		}
	}
	return out
}
