package sparql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// CustomFunc is an extension filter function callable by IRI, e.g. the
// grdf: spatial predicates registered by the grdf package. Arguments arrive
// fully evaluated; the function returns a term (usually xsd:boolean). at is
// the store version the evaluation pinned — inside a GRAPH pattern, the
// version of the graph being matched — so a function that reads the data
// judges a row by the same version the row came from.
type CustomFunc func(at store.StoreView, args []rdf.Term) (rdf.Term, error)

// Engine evaluates parsed queries against a store (and, when constructed
// with NewDatasetEngine, the named graphs of a dataset via GRAPH patterns).
//
// The engine reads through store.Reader, and every evaluation pins one
// immutable StoreView at entry (see pinned): the planner's estimates, the
// join loops and the result materialization all observe the same store
// version, lock-free, however many mutations commit while the query runs.
type Engine struct {
	store    store.Reader
	dataset  *store.Dataset
	funcs    map[rdf.IRI]CustomFunc
	probers  map[rdf.IRI]Prober
	met      *engineMetrics
	planning bool
	// statsSink, when set, receives one EvalStats summary per EvalCtx call
	// (see SetStatsSink).
	statsSink func(EvalStats)
	// stats accumulates the in-flight evaluation's per-step numbers; the
	// pointer survives the pinned() and forGraph() copies so every BGP of
	// one evaluation lands in the same accumulator.
	stats *evalStepStats
	// probed memoizes index probes for the length of one evaluation (see
	// candidates in probe.go). Only the per-evaluation copy pinned() makes
	// ever holds one.
	probed map[probeSpec][]store.ID
}

// EvalStats summarizes one query evaluation for workload introspection: the
// parse-time fingerprint next to what the join executor actually did.
type EvalStats struct {
	// Fingerprint and CanonicalForm identify the query shape (see
	// fingerprint.go).
	Fingerprint   uint64
	CanonicalForm string
	Kind          QueryKind
	// Reordered reports whether any BGP plan deviated from textual order.
	Reordered bool
	// Steps counts executed BGP join steps.
	Steps int
	// RowsScanned and RowsOut total the index entries scanned and the
	// solutions surviving each join step.
	RowsScanned int64
	RowsOut     int64
	// MaxMisestimate is the worst per-step ratio between the planner's
	// cardinality estimate and the step's actual output rows (both floored
	// at 1; 0 when no planned step ran). A large value marks a query shape
	// the planner misjudges.
	MaxMisestimate float64
	// Solutions is the result size (bindings, template triples, or 1 for a
	// decided ASK); Failed marks an evaluation error.
	Solutions int64
	Failed    bool
}

// evalStepStats is the mutable accumulator behind EvalStats. Evaluation is
// single-goroutine, so plain fields suffice.
type evalStepStats struct {
	reordered   bool
	steps       int
	rowsScanned int64
	rowsOut     int64
	maxMis      float64
}

// noteStep folds one executed BGP step into the accumulator. est is the
// planner's estimate (-1 when planning was off).
func (s *evalStepStats) noteStep(est float64, scanned, out int) {
	s.steps++
	s.rowsScanned += int64(scanned)
	s.rowsOut += int64(out)
	if est >= 0 {
		e, a := est, float64(out)
		if e < 1 {
			e = 1
		}
		if a < 1 {
			a = 1
		}
		ratio := e / a
		if a > e {
			ratio = a / e
		}
		if ratio > s.maxMis {
			s.maxMis = ratio
		}
	}
}

// SetStatsSink registers fn to receive one EvalStats summary at the end of
// every EvalCtx call (parse failures never reach it: without a parsed query
// there is no fingerprint). Returns e for chaining.
func (e *Engine) SetStatsSink(fn func(EvalStats)) *Engine {
	e.statsSink = fn
	return e
}

// engineMetrics holds the evaluator's per-phase instrumentation: the
// GeoSPARQL benchmarking literature is unambiguous that engines need
// parse-vs-eval phase timing to locate their bottlenecks, so the two phases
// are observed separately.
type engineMetrics struct {
	reg          *obs.Registry
	parse        *obs.Histogram
	eval         *obs.Histogram
	solutions    *obs.Counter
	errors       *obs.Counter
	plans        *obs.Counter
	planReorders *obs.Counter
}

// Instrument exports parse/eval phase timings, per-kind query counts,
// solution counts and planner activity into reg (nil is a no-op). Returns e
// for chaining. Call before serving queries.
func (e *Engine) Instrument(reg *obs.Registry) *Engine {
	if reg == nil {
		return e
	}
	e.met = &engineMetrics{
		reg: reg,
		parse: reg.Histogram("grdf_sparql_parse_duration_seconds",
			"SPARQL parse phase latency.", nil),
		eval: reg.Histogram("grdf_sparql_eval_duration_seconds",
			"SPARQL evaluation phase latency.", nil),
		solutions: reg.Counter("grdf_sparql_solutions_total",
			"Solutions (bindings or template triples) produced."),
		errors: reg.Counter("grdf_sparql_errors_total",
			"Queries that failed to parse or evaluate."),
		plans: reg.Counter("grdf_sparql_plans_total",
			"BGPs scheduled by the selectivity planner."),
		planReorders: reg.Counter("grdf_sparql_plan_reorders_total",
			"BGP plans that deviated from textual pattern order."),
	}
	return e
}

// NewEngine returns an engine over s with selectivity planning enabled.
func NewEngine(s *store.Store) *Engine {
	return &Engine{store: s, funcs: make(map[rdf.IRI]CustomFunc), probers: make(map[rdf.IRI]Prober), planning: true}
}

// NewDatasetEngine returns an engine whose default graph is ds.Default() and
// whose GRAPH patterns address the dataset's named graphs.
func NewDatasetEngine(ds *store.Dataset) *Engine {
	return &Engine{store: ds.Default(), dataset: ds, funcs: make(map[rdf.IRI]CustomFunc), probers: make(map[rdf.IRI]Prober), planning: true}
}

// SetPlanning toggles the selectivity planner. When off, BGPs join in the
// legacy static order (constants before variables); evaluation is otherwise
// identical — index probes (see probe.go) still seed the join — which is what
// the planner benchmarks rely on. Returns e.
func (e *Engine) SetPlanning(on bool) *Engine {
	e.planning = on
	return e
}

// forGraph derives an engine over one named graph, sharing functions and the
// dataset. The graph is pinned the same way the default graph was.
func (e *Engine) forGraph(st *store.Store) *Engine {
	// Metrics stay with the outer engine: nested GRAPH evaluation is part of
	// the same query, so timing it separately would double-count.
	return &Engine{store: st.View(), dataset: e.dataset, funcs: e.funcs, probers: e.probers, planning: e.planning, stats: e.stats}
}

// pinned returns a shallow engine copy whose store is pinned to the current
// version (one atomic load). A query evaluated through the pinned engine
// sees a single consistent revision end to end — concurrent commits neither
// block it nor leak into its results.
func (e *Engine) pinned() *Engine {
	ne := *e
	ne.store = e.store.View()
	return &ne
}

// Store returns the store the engine evaluates over.
func (e *Engine) Store() store.Reader { return e.store }

// RegisterFunc installs a custom filter function under the given IRI.
func (e *Engine) RegisterFunc(iri rdf.IRI, fn CustomFunc) { e.funcs[iri] = fn }

// Binding maps variables to terms. A nil entry never occurs; unbound
// variables are simply absent.
type Binding map[Variable]rdf.Term

func (b Binding) clone() Binding {
	c := make(Binding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// key produces a deduplication key over the given variables.
func (b Binding) key(vars []Variable) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// Result carries the outcome of a query.
type Result struct {
	Kind     QueryKind
	Vars     []Variable // SELECT projection (resolved, in order)
	Bindings []Binding  // SELECT solutions
	Bool     bool       // ASK outcome
	Graph    *rdf.Graph // CONSTRUCT output
}

// Query parses and evaluates src in one step with a background context.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx parses and evaluates src under ctx. Cancellation and deadlines
// are honored between join steps; the error is ctx.Err() when the context
// ends first.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Result, error) {
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	q, err := ParseQuery(src, nil)
	if e.met != nil {
		e.met.parse.ObserveSince(start)
	}
	if err != nil {
		if e.met != nil {
			e.met.errors.Inc()
		}
		return nil, err
	}
	return e.EvalCtx(ctx, q)
}

// Eval evaluates a parsed query with a background context.
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalCtx(context.Background(), q)
}

// EvalCtx evaluates a parsed query under ctx, recording phase timing and
// solution counts when the engine is instrumented. On a traced context the
// whole evaluation runs under a sparql.eval span that parents the per-stage
// BGP spans, and the eval histogram's bucket gains the trace as an exemplar.
func (e *Engine) EvalCtx(ctx context.Context, q *Query) (*Result, error) {
	if e.statsSink == nil {
		return e.evalSpanned(ctx, q)
	}
	// Give this evaluation its own accumulator (the engine may be shared),
	// then summarize into the sink whatever the outcome.
	ec := *e
	ec.stats = &evalStepStats{}
	res, err := ec.evalSpanned(ctx, q)
	st := EvalStats{
		Fingerprint:    q.Fingerprint,
		CanonicalForm:  q.CanonicalForm,
		Kind:           q.Kind,
		Reordered:      ec.stats.reordered,
		Steps:          ec.stats.steps,
		RowsScanned:    ec.stats.rowsScanned,
		RowsOut:        ec.stats.rowsOut,
		MaxMisestimate: ec.stats.maxMis,
		Failed:         err != nil,
	}
	if res != nil {
		switch res.Kind {
		case Ask:
			st.Solutions = 1
		case Construct, Describe:
			st.Solutions = int64(res.Graph.Len())
		default:
			st.Solutions = int64(len(res.Bindings))
		}
	}
	e.statsSink(st)
	return res, err
}

// evalSpanned is EvalCtx minus the stats sink: the sparql.eval span, phase
// timing and solution accounting around the raw evaluation.
func (e *Engine) evalSpanned(ctx context.Context, q *Query) (*Result, error) {
	ctx, sp := obs.StartSpan(ctx, "sparql.eval")
	sp.SetAttr("kind", q.Kind.String())
	if e.met == nil {
		res, err := e.eval(ctx, q)
		if err != nil {
			sp.Fail(err)
		}
		sp.End()
		return res, err
	}
	start := time.Now()
	res, err := e.eval(ctx, q)
	e.met.eval.ObserveWithExemplar(time.Since(start).Seconds(), obs.TraceID(ctx))
	e.met.reg.Counter("grdf_sparql_queries_total",
		"Queries evaluated by kind.", "kind", q.Kind.String()).Inc()
	if err != nil {
		e.met.errors.Inc()
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	switch res.Kind {
	case Ask:
		e.met.solutions.Inc()
		sp.Add("solutions", 1)
	case Construct, Describe:
		e.met.solutions.Add(float64(res.Graph.Len()))
		sp.Add("solutions", int64(res.Graph.Len()))
	default:
		e.met.solutions.Add(float64(len(res.Bindings)))
		sp.Add("solutions", int64(len(res.Bindings)))
	}
	sp.End()
	return res, nil
}

// eval is the un-instrumented evaluation path. It runs entirely against one
// pinned store version.
func (e *Engine) eval(ctx context.Context, q *Query) (*Result, error) {
	e = e.pinned()
	seed := []Binding{{}}
	sols, err := e.evalGroup(ctx, q.Where, seed)
	if err != nil {
		return nil, err
	}

	switch q.Kind {
	case Ask:
		return &Result{Kind: Ask, Bool: len(sols) > 0}, nil

	case Construct:
		g := rdf.NewGraph()
		for _, b := range sols {
			for _, tp := range q.Template {
				t, ok := instantiate(tp, b)
				if ok {
					g.Add(t)
				}
			}
		}
		return &Result{Kind: Construct, Graph: g}, nil

	case Describe:
		g := rdf.NewGraph()
		seen := map[string]struct{}{}
		describe := func(res rdf.Term) {
			if res == nil || res.Kind() == rdf.KindLiteral {
				return
			}
			k := res.String()
			if _, dup := seen[k]; dup {
				return
			}
			seen[k] = struct{}{}
			e.describeInto(g, res, map[string]struct{}{})
		}
		for _, target := range q.DescribeTargets {
			if v, isVar := target.(Variable); isVar {
				for _, b := range sols {
					if t, ok := b[v]; ok {
						describe(t)
					}
				}
			} else {
				describe(target)
			}
		}
		return &Result{Kind: Describe, Graph: g}, nil

	default: // Select
		vars := q.Vars
		if q.hasAggregates() {
			grouped, err := e.evalAggregates(ctx, q, sols)
			if err != nil {
				return nil, err
			}
			sols = grouped
			// Projection: the plain vars (which must be grouped) followed by
			// the aggregate aliases, in declaration order.
			vars = append([]Variable{}, q.Vars...)
			for _, a := range q.Aggregates {
				vars = append(vars, a.As)
			}
		}
		if len(vars) == 0 {
			vars = collectVars(q.Where)
		}
		if len(q.OrderBy) > 0 {
			if err := e.sortSolutions(ctx, sols, q.OrderBy); err != nil {
				return nil, err
			}
		}
		if q.Distinct {
			seen := map[string]struct{}{}
			var out []Binding
			for _, b := range sols {
				k := b.key(vars)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				out = append(out, b)
			}
			sols = out
		}
		if q.Offset > 0 {
			if q.Offset >= len(sols) {
				sols = nil
			} else {
				sols = sols[q.Offset:]
			}
		}
		if q.Limit >= 0 && q.Limit < len(sols) {
			sols = sols[:q.Limit]
		}
		// Project.
		projected := make([]Binding, len(sols))
		for i, b := range sols {
			pb := make(Binding, len(vars))
			for _, v := range vars {
				if t, ok := b[v]; ok {
					pb[v] = t
				}
			}
			projected[i] = pb
		}
		return &Result{Kind: Select, Vars: vars, Bindings: projected}, nil
	}
}

func instantiate(tp TriplePattern, b Binding) (rdf.Triple, bool) {
	s := resolveTerm(tp.Subject, b)
	var p rdf.Term
	switch pe := tp.Predicate.(type) {
	case Link:
		p = pe.IRI
	case VarPath:
		p = resolveTerm(pe.Var, b)
	default:
		return rdf.Triple{}, false
	}
	o := resolveTerm(tp.Object, b)
	if s == nil || p == nil || o == nil {
		return rdf.Triple{}, false
	}
	t := rdf.T(s, p, o)
	return t, t.Valid()
}

func resolveTerm(t rdf.Term, b Binding) rdf.Term {
	if v, ok := t.(Variable); ok {
		bound, ok := b[v]
		if !ok {
			return nil
		}
		return bound
	}
	return t
}

func collectVars(g *GroupPattern) []Variable {
	seen := map[Variable]struct{}{}
	var out []Variable
	var walkGroup func(*GroupPattern)
	note := func(t rdf.Term) {
		if v, ok := t.(Variable); ok {
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	var notePath func(PathExpr)
	notePath = func(p PathExpr) {
		switch pe := p.(type) {
		case VarPath:
			note(pe.Var)
		case Inverse:
			notePath(pe.Path)
		case Seq:
			notePath(pe.Left)
			notePath(pe.Right)
		case Alt:
			notePath(pe.Left)
			notePath(pe.Right)
		case Repeat:
			notePath(pe.Path)
		}
	}
	walkGroup = func(g *GroupPattern) {
		for _, el := range g.Elements {
			switch v := el.(type) {
			case *BGP:
				for _, tp := range v.Patterns {
					note(tp.Subject)
					notePath(tp.Predicate)
					note(tp.Object)
				}
			case *Optional:
				walkGroup(v.Group)
			case *Union:
				walkGroup(v.Left)
				walkGroup(v.Right)
			case *SubGroup:
				walkGroup(v.Group)
			case *Bind:
				note(v.Var)
			case *Values:
				for _, vv := range v.Vars {
					note(vv)
				}
			}
		}
	}
	walkGroup(g)
	return out
}

func (e *Engine) evalGroup(ctx context.Context, g *GroupPattern, in []Binding) ([]Binding, error) {
	cur := in
	probes := e.probeSpecs(g)
	for _, el := range g.Elements {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		switch v := el.(type) {
		case *BGP:
			var seeds []probeSeed
			if len(probes) > 0 {
				rows := cur
				seeds = e.takeProbes(ctx, &probes, v, func(pv Variable) bool {
					return slices.ContainsFunc(rows, func(b Binding) bool { _, ok := b[pv]; return ok })
				})
				seeds = slices.DeleteFunc(seeds, func(sd probeSeed) bool { return sd.unused != "" })
			}
			cur, err = e.evalBGP(ctx, v, cur, seeds)
		case *Filter:
			cur, err = e.evalFilter(ctx, v, cur)
		case *Optional:
			cur, err = e.evalOptional(ctx, v, cur)
		case *Union:
			cur, err = e.evalUnion(ctx, v, cur)
		case *SubGroup:
			cur, err = e.evalGroup(ctx, v.Group, cur)
		case *GraphPattern:
			cur, err = e.evalGraphPattern(ctx, v, cur)
		case *Values:
			var next []Binding
			for _, b := range cur {
				for _, row := range v.Rows {
					nb := b.clone()
					ok := true
					for i, cell := range row {
						if cell == nil {
							continue // UNDEF leaves the variable as-is
						}
						if !bindVar(nb, v.Vars[i], cell) {
							ok = false
							break
						}
					}
					if ok {
						next = append(next, nb)
					}
				}
			}
			cur = next
		case *Bind:
			var next []Binding
			for _, b := range cur {
				val, evalErr := e.evalExpr(ctx, v.Expr, b)
				if evalErr != nil {
					// expression error leaves the variable unbound
					next = append(next, b)
					continue
				}
				if prev, bound := b[v.Var]; bound {
					if !prev.Equal(val) {
						continue // re-binding to a different value eliminates
					}
					next = append(next, b)
					continue
				}
				nb := b.clone()
				nb[v.Var] = val
				next = append(next, nb)
			}
			cur = next
		default:
			err = fmt.Errorf("sparql: unknown pattern element %T", el)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

// idSol is an intermediate BGP solution. Variables bound before the BGP stay
// in base (shared, never mutated); variables bound during the join live in
// ids as dictionary IDs, or in terms for the rare values with no dictionary
// entry (zero-length property paths can bind terms the store never saw).
type idSol struct {
	base  Binding
	ids   map[Variable]store.ID
	terms map[Variable]rdf.Term
}

func (s *idSol) clone() *idSol {
	c := &idSol{base: s.base}
	if len(s.ids) > 0 {
		c.ids = make(map[Variable]store.ID, len(s.ids)+2)
		for k, v := range s.ids {
			c.ids[k] = v
		}
	}
	if len(s.terms) > 0 {
		c.terms = make(map[Variable]rdf.Term, len(s.terms))
		for k, v := range s.terms {
			c.terms[k] = v
		}
	}
	return c
}

func (s *idSol) setID(v Variable, id store.ID) {
	if s.ids == nil {
		s.ids = make(map[Variable]store.ID, 3)
	}
	s.ids[v] = id
}

func (s *idSol) setTerm(v Variable, t rdf.Term) {
	if s.terms == nil {
		s.terms = make(map[Variable]rdf.Term, 1)
	}
	s.terms[v] = t
}

// term resolves v to its bound term, consulting ids (via the store
// dictionary), the overflow terms and the base binding.
func (e *Engine) solTerm(s *idSol, v Variable) (rdf.Term, bool) {
	if id, ok := s.ids[v]; ok {
		return e.store.TermOf(id), true
	}
	if t, ok := s.terms[v]; ok {
		return t, true
	}
	t, ok := s.base[v]
	return t, ok
}

// cancelCheckEvery bounds how many produced matches may pass between two
// context checks inside a single pattern scan (power of two).
const cancelCheckEvery = 256

// evalBGP joins the triple patterns against the store in ID space. The join
// order comes from the selectivity planner (or the legacy static order when
// planning is off); terms are materialized once, at BGP output. On a traced
// context every join stage gets a sparql.bgp.step span carrying the planner's
// cost estimate next to the actual row counts — the raw material of
// EXPLAIN ANALYZE. seeds are the index probes that fired for this BGP (see
// probe.go): the join starts from their candidates.
func (e *Engine) evalBGP(ctx context.Context, bgp *BGP, in []Binding, seeds []probeSeed) ([]Binding, error) {
	if len(bgp.Patterns) == 0 {
		return in, nil
	}
	var steps []PlanStep
	if e.planning {
		bound := make(map[Variable]struct{})
		if len(in) > 0 {
			for v := range in[0] {
				bound[v] = struct{}{}
			}
		}
		for _, sd := range seeds {
			bound[sd.v] = struct{}{}
		}
		plan := PlanBGP(e.store, bgp.Patterns, bound)
		steps = plan.Steps
		if e.met != nil {
			e.met.plans.Inc()
			if plan.Reordered {
				e.met.planReorders.Inc()
			}
		}
		if e.stats != nil && plan.Reordered {
			e.stats.reordered = true
		}
	} else {
		ordered := orderPatterns(bgp.Patterns)
		steps = make([]PlanStep, len(ordered))
		for i, tp := range ordered {
			// No planner ran: there is no cost estimate to compare against.
			steps[i] = PlanStep{Pattern: tp, Index: i, Estimate: -1}
		}
	}

	sols := make([]*idSol, len(in))
	for i, b := range in {
		sols[i] = &idSol{base: b}
	}
	for _, sd := range seeds {
		sols = seed(sols, sd)
		if e.stats != nil {
			// The candidates are the index entries this step read.
			e.stats.noteStep(-1, len(sd.ids), len(sols))
		}
		if len(sols) == 0 {
			return nil, nil
		}
	}
	for stage, ps := range steps {
		tp := ps.Pattern
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, sp := obs.StartSpan(ctx, "sparql.bgp.step")
		sp.SetAttr("pattern", tp.String())
		sp.SetAttr("stage", strconv.Itoa(stage))
		sp.SetAttr("pattern_index", strconv.Itoa(ps.Index))
		if ps.Estimate >= 0 {
			sp.SetAttr("estimate", strconv.FormatFloat(ps.Estimate, 'g', 4, 64))
		}
		sp.Add("rows_in", int64(len(sols)))
		var err error
		var scanned int
		if isCompositePath(tp.Predicate) {
			sols, scanned, err = e.stepPath(ctx, tp, sols)
		} else {
			sols, scanned, err = e.stepSimple(ctx, tp, sols)
		}
		sp.Add("rows_scanned", int64(scanned))
		sp.Add("rows_out", int64(len(sols)))
		if e.stats != nil && err == nil {
			e.stats.noteStep(ps.Estimate, scanned, len(sols))
		}
		if err != nil {
			sp.Fail(err)
			sp.End()
			return nil, err
		}
		sp.End()
		if len(sols) == 0 {
			return nil, nil
		}
	}

	// Materialize: one dictionary view resolves every ID bound above (the
	// view is taken after the joins, so it covers all of them).
	view := e.store.DictView()
	out := make([]Binding, len(sols))
	for i, s := range sols {
		b := s.base.clone()
		for v, id := range s.ids {
			b[v] = view.Term(id)
		}
		for v, t := range s.terms {
			b[v] = t
		}
		out[i] = b
	}
	return out, nil
}

// slot describes one position of a simple triple pattern after constant
// resolution.
type slot struct {
	isVar bool
	v     Variable
	id    store.ID // constant's dictionary ID when !isVar
}

// stepSimple extends every solution with the store matches of a simple
// pattern (plain IRI link or predicate variable), entirely in ID space. The
// second return value counts index entries scanned, for the stage span.
func (e *Engine) stepSimple(ctx context.Context, tp TriplePattern, sols []*idSol) ([]*idSol, int, error) {
	var slots [3]slot
	terms := [3]rdf.Term{tp.Subject, nil, tp.Object}
	switch pe := tp.Predicate.(type) {
	case Link:
		terms[1] = pe.IRI
	case VarPath:
		terms[1] = pe.Var
	}
	for i, t := range terms {
		if v, ok := t.(Variable); ok {
			slots[i] = slot{isVar: true, v: v}
			continue
		}
		id, ok := e.store.LookupID(t)
		if !ok {
			// The constant was never interned: nothing can match, and the
			// BGP is conjunctive, so the whole join is empty.
			return nil, 0, nil
		}
		slots[i] = slot{id: id}
	}

	var out []*idSol
	produced := 0
	for _, s := range sols {
		if err := ctx.Err(); err != nil {
			return nil, produced, err
		}
		var probe [3]store.ID
		var free [3]Variable // variables to bind, by position (empty = fixed)
		nFree := 0
		dead := false
		for i, sl := range slots {
			if !sl.isVar {
				probe[i] = sl.id
				continue
			}
			if id, ok := s.ids[sl.v]; ok {
				probe[i] = id
				continue
			}
			if _, ok := s.terms[sl.v]; ok {
				// Bound to a term outside the dictionary: no stored triple
				// can contain it, so this solution fails the pattern.
				dead = true
				break
			}
			if t, ok := s.base[sl.v]; ok {
				id, ok := e.store.LookupID(t)
				if !ok {
					dead = true
					break
				}
				s.setID(sl.v, id) // cache for later patterns
				probe[i] = id
				continue
			}
			free[i] = sl.v
			nFree++
		}
		if dead {
			continue
		}
		if nFree == 0 {
			// Fully bound: pure existence check, no new bindings.
			if e.store.HasIDs(probe[0], probe[1], probe[2]) {
				out = append(out, s)
			}
			continue
		}
		var stepErr error
		e.store.ForEachMatchIDs(probe[0], probe[1], probe[2], func(ms, mp, mo store.ID) bool {
			produced++
			if produced%cancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					stepErr = err
					return false
				}
			}
			got := [3]store.ID{ms, mp, mo}
			// Assign free positions, enforcing equality when one variable
			// occupies several positions (e.g. "?x ?p ?x").
			var assigned [3]struct {
				v  Variable
				id store.ID
			}
			n := 0
			for i := 0; i < 3; i++ {
				if free[i] == "" {
					continue
				}
				ok := true
				for j := 0; j < n; j++ {
					if assigned[j].v == free[i] {
						ok = assigned[j].id == got[i]
						break
					}
				}
				if !ok {
					return true
				}
				assigned[n].v, assigned[n].id = free[i], got[i]
				n++
			}
			ns := s.clone()
			for j := 0; j < n; j++ {
				ns.setID(assigned[j].v, assigned[j].id)
			}
			out = append(out, ns)
			return true
		})
		if stepErr != nil {
			return nil, produced, stepErr
		}
	}
	return out, produced, nil
}

// stepPath extends every solution through a composite property path. Paths
// run at the term level: closures with Min==0 can relate terms the store
// has never interned, so endpoint values may land in the solution's term
// overflow map rather than the ID map.
func (e *Engine) stepPath(ctx context.Context, tp TriplePattern, sols []*idSol) ([]*idSol, int, error) {
	var out []*idSol
	scanned := 0
	for _, s := range sols {
		if err := ctx.Err(); err != nil {
			return nil, scanned, err
		}
		subj := e.resolvePatternTerm(s, tp.Subject)
		obj := e.resolvePatternTerm(s, tp.Object)
		pairs, err := e.evalPath(ctx, tp.Predicate, subj, obj)
		if err != nil {
			return nil, scanned, err
		}
		scanned += len(pairs)
		for _, pr := range pairs {
			ns := s.clone()
			if !e.bindSolTerm(ns, tp.Subject, pr[0]) || !e.bindSolTerm(ns, tp.Object, pr[1]) {
				continue
			}
			out = append(out, ns)
		}
	}
	return out, scanned, nil
}

// resolvePatternTerm turns a pattern position into a concrete term for the
// path evaluator: constants pass through, bound variables resolve, unbound
// variables become nil (wildcard).
func (e *Engine) resolvePatternTerm(s *idSol, pt rdf.Term) rdf.Term {
	v, isVar := pt.(Variable)
	if !isVar {
		return pt
	}
	if t, ok := e.solTerm(s, v); ok {
		return t
	}
	return nil
}

// bindSolTerm unifies a pattern position with a concrete term produced by
// the path evaluator, storing new variable bindings as IDs when the term is
// interned and as overflow terms otherwise.
func (e *Engine) bindSolTerm(s *idSol, pt rdf.Term, ct rdf.Term) bool {
	v, isVar := pt.(Variable)
	if !isVar {
		return pt.Equal(ct)
	}
	if prev, ok := e.solTerm(s, v); ok {
		return prev.Equal(ct)
	}
	if id, ok := e.store.LookupID(ct); ok {
		s.setID(v, id)
	} else {
		s.setTerm(v, ct)
	}
	return true
}

// orderPatterns sorts patterns by a static selectivity estimate: constants
// beat variables, subjects beat objects beat predicates. Retained as the
// planner-off baseline (see SetPlanning).
func orderPatterns(ps []TriplePattern) []TriplePattern {
	out := make([]TriplePattern, len(ps))
	copy(out, ps)
	score := func(tp TriplePattern) int {
		s := 0
		if _, isVar := tp.Subject.(Variable); !isVar {
			s += 4
		}
		if _, ok := tp.Predicate.(Link); ok {
			s += 2
		}
		if _, isVar := tp.Object.(Variable); !isVar {
			s += 3
		}
		return s
	}
	sort.SliceStable(out, func(i, j int) bool { return score(out[i]) > score(out[j]) })
	return out
}

// bindTerm unifies pattern term pt with concrete term ct under binding b.
func bindTerm(b Binding, pt rdf.Term, ct rdf.Term) bool {
	v, isVar := pt.(Variable)
	if !isVar {
		return pt.Equal(ct)
	}
	return bindVar(b, v, ct)
}

func bindVar(b Binding, v Variable, ct rdf.Term) bool {
	if prev, ok := b[v]; ok {
		return prev.Equal(ct)
	}
	b[v] = ct
	return true
}

type pair [2]rdf.Term

// evalPath returns all (subject, object) pairs connected by path, with
// either endpoint optionally fixed.
func (e *Engine) evalPath(ctx context.Context, p PathExpr, subj, obj rdf.Term) ([]pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch pe := p.(type) {
	case Link:
		var out []pair
		e.store.ForEachMatch(subj, pe.IRI, obj, func(t rdf.Triple) bool {
			out = append(out, pair{t.Subject, t.Object})
			return true
		})
		return out, nil
	case VarPath:
		return nil, fmt.Errorf("sparql: variable inside composite path")
	case Inverse:
		pairs, err := e.evalPath(ctx, pe.Path, obj, subj)
		if err != nil {
			return nil, err
		}
		out := make([]pair, len(pairs))
		for i, pr := range pairs {
			out[i] = pair{pr[1], pr[0]}
		}
		return out, nil
	case Seq:
		left, err := e.evalPath(ctx, pe.Left, subj, nil)
		if err != nil {
			return nil, err
		}
		var out []pair
		seen := map[pair]struct{}{}
		for _, l := range left {
			// middle node l[1] must be a valid subject
			if l[1].Kind() == rdf.KindLiteral {
				continue
			}
			rights, err := e.evalPath(ctx, pe.Right, l[1], obj)
			if err != nil {
				return nil, err
			}
			for _, r := range rights {
				pr := pair{l[0], r[1]}
				if _, dup := seen[pr]; !dup {
					seen[pr] = struct{}{}
					out = append(out, pr)
				}
			}
		}
		return out, nil
	case Alt:
		left, err := e.evalPath(ctx, pe.Left, subj, obj)
		if err != nil {
			return nil, err
		}
		right, err := e.evalPath(ctx, pe.Right, subj, obj)
		if err != nil {
			return nil, err
		}
		seen := map[pair]struct{}{}
		var out []pair
		for _, pr := range append(left, right...) {
			if _, dup := seen[pr]; !dup {
				seen[pr] = struct{}{}
				out = append(out, pr)
			}
		}
		return out, nil
	case Repeat:
		return e.evalRepeat(ctx, pe, subj, obj)
	}
	return nil, fmt.Errorf("sparql: unknown path %T", p)
}

// evalRepeat handles *, + and ? closures with breadth-first expansion,
// checking the context once per BFS level.
func (e *Engine) evalRepeat(ctx context.Context, r Repeat, subj, obj rdf.Term) ([]pair, error) {
	starts, err := e.repeatStarts(r, subj)
	if err != nil {
		return nil, err
	}
	var out []pair
	emit := func(s, o rdf.Term) {
		if obj == nil || obj.Equal(o) {
			out = append(out, pair{s, o})
		}
	}
	for _, start := range starts {
		reached := map[string]rdf.Term{}
		frontier := []rdf.Term{start}
		depth := 0
		if r.Min == 0 {
			emit(start, start)
		}
		for len(frontier) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			depth++
			if r.Max >= 0 && depth > r.Max {
				break
			}
			var next []rdf.Term
			for _, node := range frontier {
				if node.Kind() == rdf.KindLiteral {
					continue
				}
				steps, err := e.evalPath(ctx, r.Path, node, nil)
				if err != nil {
					return nil, err
				}
				for _, st := range steps {
					key := st[1].String()
					if _, dup := reached[key]; dup {
						continue
					}
					reached[key] = st[1]
					next = append(next, st[1])
					if depth >= r.Min {
						emit(start, st[1])
					}
				}
			}
			frontier = next
		}
	}
	return out, nil
}

// repeatStarts determines the starting set for a repetition: the fixed
// subject if bound, else every node in the store.
func (e *Engine) repeatStarts(r Repeat, subj rdf.Term) ([]rdf.Term, error) {
	if subj != nil {
		return []rdf.Term{subj}, nil
	}
	seen := map[string]struct{}{}
	var out []rdf.Term
	e.store.ForEachMatch(nil, nil, nil, func(t rdf.Triple) bool {
		for _, term := range []rdf.Term{t.Subject, t.Object} {
			k := term.String()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, term)
			}
		}
		return true
	})
	return out, nil
}

func (e *Engine) evalFilter(ctx context.Context, f *Filter, in []Binding) ([]Binding, error) {
	var out []Binding
	for _, b := range in {
		v, err := e.evalExpr(ctx, f.Expr, b)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			continue // expression error => solution eliminated (SPARQL semantics)
		}
		ok, err := effectiveBool(v)
		if err == nil && ok {
			out = append(out, b)
		}
	}
	return out, nil
}

func (e *Engine) evalOptional(ctx context.Context, o *Optional, in []Binding) ([]Binding, error) {
	var out []Binding
	for _, b := range in {
		ext, err := e.evalGroup(ctx, o.Group, []Binding{b})
		if err != nil {
			return nil, err
		}
		if len(ext) == 0 {
			out = append(out, b)
		} else {
			out = append(out, ext...)
		}
	}
	return out, nil
}

func (e *Engine) evalUnion(ctx context.Context, u *Union, in []Binding) ([]Binding, error) {
	left, err := e.evalGroup(ctx, u.Left, in)
	if err != nil {
		return nil, err
	}
	right, err := e.evalGroup(ctx, u.Right, in)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

func (e *Engine) sortSolutions(ctx context.Context, sols []Binding, keys []OrderKey) error {
	type cached struct {
		vals []rdf.Term
		errs []bool
	}
	cache := make([]cached, len(sols))
	for i, b := range sols {
		c := cached{vals: make([]rdf.Term, len(keys)), errs: make([]bool, len(keys))}
		for j, k := range keys {
			v, err := e.evalExpr(ctx, k.Expr, b)
			if err != nil {
				c.errs[j] = true
			} else {
				c.vals[j] = v
			}
		}
		cache[i] = c
	}
	idx := make([]int, len(sols))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, k := range keys {
			cmp := compareTerms(cache[idx[a]].vals[j], cache[idx[b]].vals[j],
				cache[idx[a]].errs[j], cache[idx[b]].errs[j])
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([]Binding, len(sols))
	for i, j := range idx {
		sorted[i] = sols[j]
	}
	copy(sols, sorted)
	return nil
}

// compareTerms orders terms for ORDER BY: unbound/error < blank < IRI < literal.
func compareTerms(a, b rdf.Term, aErr, bErr bool) int {
	rank := func(t rdf.Term, e bool) int {
		switch {
		case e || t == nil:
			return 0
		case t.Kind() == rdf.KindBlank:
			return 1
		case t.Kind() == rdf.KindIRI:
			return 2
		default:
			return 3
		}
	}
	ra, rb := rank(a, aErr), rank(b, bErr)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if ra == 0 {
		return 0
	}
	if ra == 3 {
		la, lb := a.(rdf.Literal), b.(rdf.Literal)
		if cmp, ok := rdf.CompareLiterals(la, lb); ok {
			return cmp
		}
	}
	return strings.Compare(a.String(), b.String())
}

// evalGraphPattern evaluates GRAPH <name> { … } against the dataset's named
// graphs.
func (e *Engine) evalGraphPattern(ctx context.Context, gp *GraphPattern, in []Binding) ([]Binding, error) {
	if e.dataset == nil {
		return nil, fmt.Errorf("sparql: GRAPH requires a dataset-backed engine")
	}
	var out []Binding
	for _, b := range in {
		name := gp.Name
		if v, isVar := name.(Variable); isVar {
			if bound, ok := b[v]; ok {
				name = bound
			}
		}
		if iri, ok := name.(rdf.IRI); ok {
			st, exists := e.dataset.Graph(iri, false)
			if !exists {
				continue
			}
			sols, err := e.forGraph(st).evalGroup(ctx, gp.Group, []Binding{b})
			if err != nil {
				return nil, err
			}
			out = append(out, sols...)
			continue
		}
		// unbound variable: try every named graph, binding the name
		v := gp.Name.(Variable)
		for _, gname := range e.dataset.GraphNames() {
			st, _ := e.dataset.Graph(gname, false)
			nb := b.clone()
			if !bindVar(nb, v, gname) {
				continue
			}
			sols, err := e.forGraph(st).evalGroup(ctx, gp.Group, []Binding{nb})
			if err != nil {
				return nil, err
			}
			out = append(out, sols...)
		}
	}
	return out, nil
}

// describeInto copies the subject's triples (with blank-node closure) into g.
func (e *Engine) describeInto(g *rdf.Graph, res rdf.Term, visited map[string]struct{}) {
	k := res.String()
	if _, dup := visited[k]; dup {
		return
	}
	visited[k] = struct{}{}
	e.store.ForEachMatch(res, nil, nil, func(t rdf.Triple) bool {
		g.Add(t)
		return true
	})
	// follow blank-node objects so the description is self-contained
	for _, t := range g.Match(res, nil, nil) {
		if t.Object.Kind() == rdf.KindBlank {
			e.describeInto(g, t.Object, visited)
		}
	}
}
