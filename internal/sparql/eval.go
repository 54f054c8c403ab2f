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
	// cells are the JSON cells of the store's dictionary, when set (see
	// SetCells).
	cells *Cells
	// The rest is set on the per-evaluation copy pinned() makes, and on the
	// copies forGraph() makes of that: terms resolves the IDs of the store's
	// pinned version, ev is what the evaluation knows about its query (shared
	// between the graphs it visits), and probed memoizes this graph's index
	// probes for the length of the evaluation (see candidates in probe.go).
	terms  terms
	ev     *evaluation
	probed map[probeSpec][]store.ID
}

// EvalStats summarizes one query evaluation: the parse-time fingerprint next
// to what the join executor actually did. A Result carries its own.
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

// noteStep folds one executed BGP step into s, the accumulator of an
// evaluation in flight. est is the planner's estimate (-1 when planning was
// off).
func (s *EvalStats) noteStep(est float64, scanned, out int) {
	s.Steps++
	s.RowsScanned += int64(scanned)
	s.RowsOut += int64(out)
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
		if ratio > s.MaxMisestimate {
			s.MaxMisestimate = ratio
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
// are observed separately. What a query returned and how it was planned is
// booked per fingerprint, from the request's record (see EvalStats).
type engineMetrics struct {
	parse *obs.Histogram
	eval  *obs.Histogram
}

// Instrument exports parse and eval phase timings into reg (nil is a no-op).
// Returns e for chaining. Call before serving queries.
func (e *Engine) Instrument(reg *obs.Registry) *Engine {
	if reg == nil {
		return e
	}
	e.met = &engineMetrics{
		parse: reg.Histogram("grdf_sparql_parse_duration_seconds",
			"SPARQL parse phase latency.", nil),
		eval: reg.Histogram("grdf_sparql_eval_duration_seconds",
			"SPARQL evaluation phase latency.", nil),
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
	view := st.View()
	return &Engine{store: view, dataset: e.dataset, funcs: e.funcs, probers: e.probers, planning: e.planning,
		terms: terms{dict: view.DictView(), scratch: e.terms.scratch}, ev: e.ev}
}

// pinned returns a shallow engine copy for one evaluation of q: its store is
// pinned to the current version (one atomic load), and q's variables have
// their columns. A query evaluated through the pinned engine sees a single
// consistent revision end to end — concurrent commits neither block it nor
// leak into its results.
func (e *Engine) pinned(q *Query) *Engine {
	ne := *e
	view := e.store.View()
	ne.store = view
	ne.ev = newEvaluation(q)
	ne.terms = terms{dict: view.DictView(), scratch: &scratch{}}
	return &ne
}

// Store returns the store the engine evaluates over.
func (e *Engine) Store() store.Reader { return e.store }

// RegisterFunc installs a custom filter function under the given IRI.
func (e *Engine) RegisterFunc(iri rdf.IRI, fn CustomFunc) { e.funcs[iri] = fn }

// Query parses and evaluates src in one step with a background context.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx parses and evaluates src under ctx. Cancellation and deadlines
// are honored between join steps; the error is ctx.Err() when the context
// ends first.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Result, error) {
	q, err := e.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.EvalCtx(ctx, q)
}

// Parse parses src, timing the parse phase when the engine is instrumented.
func (e *Engine) Parse(src string) (*Query, error) {
	if e.met == nil {
		return ParseQuery(src, nil)
	}
	start := time.Now()
	q, err := ParseQuery(src, nil)
	e.met.parse.ObserveSince(start)
	return q, err
}

// Eval evaluates a parsed query with a background context.
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalCtx(context.Background(), q)
}

// EvalCtx evaluates a parsed query under ctx. The result carries the
// evaluation's EvalStats, and the stats sink, when set, gets them whatever
// the outcome. On a traced context the whole evaluation runs under a
// sparql.eval span that parents the per-stage BGP spans, and on an
// instrumented engine the eval histogram's bucket gains the trace as an
// exemplar.
func (e *Engine) EvalCtx(ctx context.Context, q *Query) (*Result, error) {
	ctx, sp := obs.StartSpan(ctx, "sparql.eval")
	sp.SetAttr("kind", q.Kind.String())
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	pe := e.pinned(q)
	res, err := pe.eval(ctx, q)
	if e.met != nil {
		e.met.eval.ObserveWithExemplar(time.Since(start).Seconds(), obs.TraceID(ctx))
	}
	st := pe.ev.stats
	st.Fingerprint, st.CanonicalForm, st.Kind, st.Failed = q.Fingerprint, q.CanonicalForm, q.Kind, err != nil
	if err != nil {
		sp.Fail(err)
	} else {
		switch res.Kind {
		case Ask:
			st.Solutions = 1
		case Construct, Describe:
			st.Solutions = int64(res.Graph.Len())
		default:
			st.Solutions = int64(res.Len())
		}
		res.Stats = st
		sp.Add("solutions", st.Solutions)
	}
	sp.End()
	if e.statsSink != nil {
		e.statsSink(st)
	}
	return res, err
}

// eval is the un-instrumented evaluation path of the pinned engine pinned(q)
// returned: it runs entirely against one store version.
func (e *Engine) eval(ctx context.Context, q *Query) (*Result, error) {
	w := e.ev.width
	sols, err := e.evalGroup(ctx, q.Where, table{width: w, n: 1, ids: make([]store.ID, w)})
	if err != nil {
		return nil, err
	}

	switch q.Kind {
	case Ask:
		return &Result{Kind: Ask, Bool: sols.n > 0}, nil

	case Construct:
		g := rdf.NewGraph()
		for i := 0; i < sols.n; i++ {
			for _, tp := range q.Template {
				if t, ok := e.instantiate(tp, sols.row(i)); ok {
					g.Add(t)
				}
			}
		}
		return &Result{Kind: Construct, Graph: g}, nil

	case Describe:
		g := rdf.NewGraph()
		seen := map[rdf.Term]struct{}{}
		describe := func(res rdf.Term) {
			if res == nil || res.Kind() == rdf.KindLiteral {
				return
			}
			if _, dup := seen[res]; dup {
				return
			}
			seen[res] = struct{}{}
			e.describeInto(g, res, map[string]struct{}{})
		}
		for _, target := range q.DescribeTargets {
			if _, isVar := target.(Variable); isVar {
				for i := 0; i < sols.n; i++ {
					describe(e.resolve(target, sols.row(i)))
				}
			} else {
				describe(target)
			}
		}
		return &Result{Kind: Describe, Graph: g}, nil

	default: // Select
		vars := q.Vars
		if q.hasAggregates() {
			if sols, err = e.evalAggregates(ctx, q, sols); err != nil {
				return nil, err
			}
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
			sols = e.sortRows(ctx, sols, q.OrderBy)
		}
		cols := make([]int, len(vars))
		for i, v := range vars {
			cols[i] = e.ev.cols[v]
		}
		if q.Distinct {
			sols = distinct(sols, cols)
		}
		if q.Offset > 0 {
			sols = sols.slice(min(q.Offset, sols.n), sols.n)
		}
		if q.Limit >= 0 && q.Limit < sols.n {
			sols = sols.slice(0, q.Limit)
		}
		return &Result{Kind: Select, Vars: vars, rows: sols, cols: cols, terms: e.terms, cells: e.cells}, nil
	}
}

// distinct keeps the first of the rows that agree on cols.
func distinct(in table, cols []int) table {
	out := table{width: in.width}
	seen := make(map[string]struct{})
	var key []byte
	for i := 0; i < in.n; i++ {
		row := in.row(i)
		key = tupleKey(key[:0], row, cols)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out.add(row)
	}
	return out
}

// resolve returns the term a pattern position stands for under row: the
// constant itself, a variable's value, or nil for an unbound variable.
func (e *Engine) resolve(pt rdf.Term, row []store.ID) rdf.Term {
	if v, ok := pt.(Variable); ok {
		return e.terms.term(row[e.ev.cols[v]])
	}
	return pt
}

func (e *Engine) instantiate(tp TriplePattern, row []store.ID) (rdf.Triple, bool) {
	var p rdf.Term
	switch pe := tp.Predicate.(type) {
	case Link:
		p = pe.IRI
	case VarPath:
		p = e.resolve(pe.Var, row)
	default:
		return rdf.Triple{}, false
	}
	t := rdf.T(e.resolve(tp.Subject, row), p, e.resolve(tp.Object, row))
	return t, t.Valid()
}

// collectVars lists the variables SELECT * projects, in order of first
// mention.
func collectVars(g *GroupPattern) []Variable {
	seen := map[Variable]struct{}{}
	var out []Variable
	note := func(v Variable) {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	var walkGroup func(*GroupPattern)
	walkGroup = func(g *GroupPattern) {
		for _, el := range g.Elements {
			switch v := el.(type) {
			case *BGP:
				for _, tp := range v.Patterns {
					patternVarsDo(tp, note)
				}
			case *Optional:
				walkGroup(v.Group)
			case *Union:
				walkGroup(v.Left)
				walkGroup(v.Right)
			case *SubGroup:
				walkGroup(v.Group)
			case *GraphPattern:
				if gv, ok := v.Name.(Variable); ok {
					note(gv)
				}
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

// evalGroup evaluates the elements of g in order over the rows of in. The
// FILTERs place() could not run where they stand run last.
func (e *Engine) evalGroup(ctx context.Context, g *GroupPattern, in table) (table, error) {
	cur := in
	probes := e.probeSpecs(g)
	var late []*Filter
	for _, el := range g.Elements {
		if err := ctx.Err(); err != nil {
			return table{}, err
		}
		var err error
		switch v := el.(type) {
		case *BGP:
			var seeds []probeSeed
			if len(probes) > 0 {
				rows := cur
				seeds = e.takeProbes(ctx, &probes, v, func(pv Variable) bool { return rows.binds(e.ev.cols[pv]) })
				seeds = slices.DeleteFunc(seeds, func(sd probeSeed) bool { return sd.unused != "" })
			}
			cur, err = e.evalBGP(ctx, v, cur, seeds)
		case *Filter:
			if e.ev.late[v] {
				late = append(late, v)
				continue
			}
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
			cur = e.evalValues(v, cur)
		case *Bind:
			cur = e.evalBind(ctx, v, cur)
		default:
			err = fmt.Errorf("sparql: unknown pattern element %T", el)
		}
		if err != nil {
			return table{}, err
		}
		if cur.n == 0 {
			return cur, nil
		}
	}
	for _, f := range late {
		var err error
		if cur, err = e.evalFilter(ctx, f, cur); err != nil || cur.n == 0 {
			return cur, err
		}
	}
	return cur, nil
}

// binds reports whether any row of t holds a value in column c.
func (t table) binds(c int) bool {
	for i := c; i < len(t.ids); i += t.width {
		if t.ids[i] != store.NoID {
			return true
		}
	}
	return false
}

// evalValues joins the rows with the inline table: a cell has to agree with
// what the row already holds, and UNDEF agrees with anything.
func (e *Engine) evalValues(v *Values, in table) table {
	cols := make([]int, len(v.Vars))
	for i, vv := range v.Vars {
		cols[i] = e.ev.cols[vv]
	}
	cells := make([]store.ID, 0, len(v.Rows)*len(cols))
	for _, vrow := range v.Rows {
		for _, cell := range vrow {
			id := store.NoID // UNDEF leaves the variable as it is
			if cell != nil {
				id = e.idOf(cell)
			}
			cells = append(cells, id)
		}
	}
	out := table{width: in.width}
	for i := 0; i < in.n; i++ {
		for r := 0; r < len(v.Rows); r++ {
			if !unify(out.add(in.row(i)), cols, cells[r*len(cols):(r+1)*len(cols)]) {
				out.drop()
			}
		}
	}
	return out
}

// unify sets row[cols[i]] to ids[i] for every i, and reports whether that
// could be done without changing a value the row (or an earlier i) had set.
// A negative column or NoID sets nothing.
func unify(row []store.ID, cols []int, ids []store.ID) bool {
	for i, c := range cols {
		switch {
		case c < 0 || ids[i] == store.NoID || row[c] == ids[i]:
		case row[c] == store.NoID:
			row[c] = ids[i]
		default:
			return false
		}
	}
	return true
}

// evalBind extends each row with the expression's value. An expression error
// leaves the variable unbound; a row that already holds a different value for
// it is eliminated.
func (e *Engine) evalBind(ctx context.Context, b *Bind, in table) table {
	cols := []int{e.ev.cols[b.Var]}
	out := table{width: in.width, ids: make([]store.ID, 0, len(in.ids))}
	for i := 0; i < in.n; i++ {
		val, err := e.evalExpr(ctx, b.Expr, in.row(i))
		if row := out.add(in.row(i)); err == nil && !unify(row, cols, []store.ID{e.idOf(val)}) {
			out.drop()
		}
	}
	return out
}

// cancelCheckEvery bounds how many rows — read from the input or produced by
// one scan — may pass between two context checks inside a join step (power of
// two).
const cancelCheckEvery = 256

// evalBGP joins the triple patterns against the store. The join order comes
// from the selectivity planner (or the legacy static order when planning is
// off). On a traced context every join stage gets a sparql.bgp.step span
// carrying the planner's cost estimate next to the actual row counts — the
// raw material of EXPLAIN ANALYZE. seeds are the index probes that fired for
// this BGP (see probe.go): the join starts from their candidates.
func (e *Engine) evalBGP(ctx context.Context, bgp *BGP, in table, seeds []probeSeed) (table, error) {
	if len(bgp.Patterns) == 0 {
		return in, nil
	}
	var steps []PlanStep
	if e.planning {
		// What the first row binds stands for what every row binds.
		bound := make(map[Variable]struct{})
		for c, v := range e.ev.vars {
			if in.ids[c] != store.NoID {
				bound[v] = struct{}{}
			}
		}
		for _, sd := range seeds {
			bound[sd.v] = struct{}{}
		}
		plan := PlanBGP(e.store, bgp.Patterns, bound)
		steps = plan.Steps
		if plan.Reordered {
			e.ev.stats.Reordered = true
		}
	} else {
		ordered := orderPatterns(bgp.Patterns)
		steps = make([]PlanStep, len(ordered))
		for i, tp := range ordered {
			// No planner ran: there is no cost estimate to compare against.
			steps[i] = PlanStep{Pattern: tp, Index: i, Estimate: -1}
		}
	}

	sols := in
	for _, sd := range seeds {
		sols = seed(sols, e.ev.cols[sd.v], sd.ids)
		// The candidates are the index entries this step read.
		e.ev.stats.noteStep(-1, len(sd.ids), sols.n)
		if sols.n == 0 {
			return sols, nil
		}
	}
	for stage, ps := range steps {
		tp := ps.Pattern
		if err := ctx.Err(); err != nil {
			return table{}, err
		}
		_, sp := obs.StartSpan(ctx, "sparql.bgp.step")
		if sp != nil {
			sp.SetAttr("pattern", tp.String())
			sp.SetAttr("stage", strconv.Itoa(stage))
			sp.SetAttr("pattern_index", strconv.Itoa(ps.Index))
			if ps.Estimate >= 0 {
				sp.SetAttr("estimate", strconv.FormatFloat(ps.Estimate, 'g', 4, 64))
			}
			sp.Add("rows_in", int64(sols.n))
		}
		var err error
		var scanned int
		if isCompositePath(tp.Predicate) {
			sols, scanned, err = e.stepPath(ctx, tp, sols)
		} else {
			sols, scanned, err = e.stepSimple(ctx, tp, sols)
		}
		sp.Add("rows_scanned", int64(scanned))
		sp.Add("rows_out", int64(sols.n))
		if err != nil {
			sp.Fail(err)
			sp.End()
			return table{}, err
		}
		e.ev.stats.noteStep(ps.Estimate, scanned, sols.n)
		sp.End()
		if sols.n == 0 {
			return sols, nil
		}
	}
	return sols, nil
}

// stepSimple extends every row with the store matches of a simple pattern
// (plain IRI link or predicate variable): the parent row is copied once per
// match and the pattern's free columns set. The second return value counts
// index entries scanned, for the stage span.
func (e *Engine) stepSimple(ctx context.Context, tp TriplePattern, in table) (table, int, error) {
	// A position is a constant's dictionary ID or a variable's column.
	var consts [3]store.ID
	cols := [3]int{-1, -1, -1}
	positions := [3]rdf.Term{tp.Subject, nil, tp.Object}
	switch pe := tp.Predicate.(type) {
	case Link:
		positions[1] = pe.IRI
	case VarPath:
		positions[1] = pe.Var
	}
	out := table{width: in.width}
	for i, t := range positions {
		if v, ok := t.(Variable); ok {
			cols[i] = e.ev.cols[v]
			continue
		}
		id, ok := e.store.LookupID(t)
		if !ok {
			// The constant was never interned: nothing can match, and the
			// BGP is conjunctive, so the whole join is empty.
			return out, 0, nil
		}
		consts[i] = id
	}
	out.ids = make([]store.ID, 0, len(in.ids))

	produced := 0
	var stepErr error
	var row []store.ID // the input row being extended
	var free [3]int    // its unbound columns by position, -1 elsewhere
	match := func(ms, mp, mo store.ID) bool {
		produced++
		if produced%cancelCheckEvery == 0 {
			if stepErr = ctx.Err(); stepErr != nil {
				return false
			}
		}
		// A variable in two positions ("?x ?p ?x") takes the first one's
		// value and has to meet it again at the second.
		if !unify(out.add(row), free[:], []store.ID{ms, mp, mo}) {
			out.drop()
		}
		return true
	}
	for r := 0; r < in.n; r++ {
		if r%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return table{}, produced, err
			}
		}
		row = in.row(r)
		probe := consts
		nFree := 0
		for i, c := range cols {
			free[i] = -1
			if c < 0 {
				continue
			}
			// A scratch ID stands for a term the store never saw: it probes
			// like any other ID and matches nothing.
			if probe[i] = row[c]; probe[i] == store.NoID {
				free[i] = c
				nFree++
			}
		}
		if nFree == 0 {
			// Fully bound: pure existence check, no new bindings.
			if e.store.HasIDs(probe[0], probe[1], probe[2]) {
				out.add(row)
			}
			continue
		}
		e.store.ForEachMatchIDs(probe[0], probe[1], probe[2], match)
		if stepErr != nil {
			return table{}, produced, stepErr
		}
	}
	return out, produced, nil
}

// stepPath extends every row through a composite property path. Paths run at
// the term level: closures with Min==0 can relate terms the store has never
// interned, which come back as scratch IDs.
func (e *Engine) stepPath(ctx context.Context, tp TriplePattern, in table) (table, int, error) {
	// The endpoints' columns; a constant endpoint (-1) is the path
	// evaluator's to match.
	cols := [2]int{-1, -1}
	for i, pt := range []rdf.Term{tp.Subject, tp.Object} {
		if v, ok := pt.(Variable); ok {
			cols[i] = e.ev.cols[v]
		}
	}
	out := table{width: in.width}
	scanned := 0
	for r := 0; r < in.n; r++ {
		if err := ctx.Err(); err != nil {
			return table{}, scanned, err
		}
		row := in.row(r)
		pairs, err := e.evalPath(ctx, tp.Predicate, e.resolve(tp.Subject, row), e.resolve(tp.Object, row))
		if err != nil {
			return table{}, scanned, err
		}
		scanned += len(pairs)
		for _, pr := range pairs {
			if !unify(out.add(row), cols[:], []store.ID{e.idOf(pr[0]), e.idOf(pr[1])}) {
				out.drop()
			}
		}
	}
	return out, scanned, nil
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

func (e *Engine) evalFilter(ctx context.Context, f *Filter, in table) (table, error) {
	out := table{width: in.width, ids: make([]store.ID, 0, len(in.ids))}
	for i := 0; i < in.n; i++ {
		row := in.row(i)
		v, err := e.evalExpr(ctx, f.Expr, row)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return table{}, ctxErr
			}
			continue // expression error => solution eliminated (SPARQL semantics)
		}
		if ok, err := effectiveBool(v); err == nil && ok {
			out.add(row)
		}
	}
	return out, nil
}

// evalOptional is a left join, evaluated once over all of in: the rows go
// into the optional group together, each carrying its own number in the
// origin column of this nesting level, and come out — zero, one or many per
// row — still carrying it. A row that nothing came out for passes through as
// it was. (Planning the group, asking its probes and walking its elements
// happen once, not once per row.)
func (e *Engine) evalOptional(ctx context.Context, o *Optional, in table) (table, error) {
	origin := len(e.ev.vars) + e.ev.depth
	stamped := table{width: in.width, n: in.n, ids: slices.Clone(in.ids)}
	for i := 0; i < in.n; i++ {
		stamped.ids[i*in.width+origin] = store.ID(i)
	}
	e.ev.depth++
	ext, err := e.evalGroup(ctx, o.Group, stamped)
	e.ev.depth--
	if err != nil {
		return table{}, err
	}
	// Every operator keeps the order of the rows it is given, except UNION,
	// which puts all of one branch ahead of all of the other.
	from := func(i int) store.ID { return ext.ids[i*ext.width+origin] }
	for i := 1; i < ext.n; i++ {
		if from(i-1) > from(i) {
			ext = ext.sortedStable(func(a, b int) bool { return from(a) < from(b) })
			break
		}
	}
	out := table{width: in.width, ids: make([]store.ID, 0, max(len(in.ids), len(ext.ids)))}
	next := 0
	for i := 0; i < in.n; i++ {
		if next == ext.n || from(next) != store.ID(i) {
			out.add(in.row(i))
		}
		for ; next < ext.n && from(next) == store.ID(i); next++ {
			out.add(ext.row(next))
		}
	}
	return out, nil
}

func (e *Engine) evalUnion(ctx context.Context, u *Union, in table) (table, error) {
	left, err := e.evalGroup(ctx, u.Left, in)
	if err != nil {
		return table{}, err
	}
	right, err := e.evalGroup(ctx, u.Right, in)
	if err != nil {
		return table{}, err
	}
	return table{width: in.width, n: left.n + right.n, ids: append(left.ids[:len(left.ids):len(left.ids)], right.ids...)}, nil
}

// sortRows orders the rows by keys, each key evaluated once per row.
func (e *Engine) sortRows(ctx context.Context, in table, keys []OrderKey) table {
	// vals[i*len(keys)+j] is key j of row i; nil stands for an error.
	vals := make([]rdf.Term, in.n*len(keys))
	for i := 0; i < in.n; i++ {
		for j, k := range keys {
			if v, err := e.evalExpr(ctx, k.Expr, in.row(i)); err == nil {
				vals[i*len(keys)+j] = v
			}
		}
	}
	return in.sortedStable(func(a, b int) bool {
		for j, k := range keys {
			cmp := compareTerms(vals[a*len(keys)+j], vals[b*len(keys)+j])
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
}

// compareTerms orders terms for ORDER BY: unbound/error < blank < IRI < literal.
func compareTerms(a, b rdf.Term) int {
	rank := func(t rdf.Term) int {
		switch {
		case t == nil:
			return 0
		case t.Kind() == rdf.KindBlank:
			return 1
		case t.Kind() == rdf.KindIRI:
			return 2
		default:
			return 3
		}
	}
	ra, rb := rank(a), rank(b)
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
// graphs. A named graph is a store with a dictionary of its own, so this is
// where the IDs of two dictionaries meet: the rows are translated into the
// graph's IDs on the way in and back on the way out (see translate).
func (e *Engine) evalGraphPattern(ctx context.Context, gp *GraphPattern, in table) (table, error) {
	if e.dataset == nil {
		return table{}, fmt.Errorf("sparql: GRAPH requires a dataset-backed engine")
	}
	var names []rdf.IRI
	nameCol := -1
	switch name := gp.Name.(type) {
	case rdf.IRI:
		names = []rdf.IRI{name}
	case Variable:
		// Every named graph is tried, by the rows that do not name another.
		names, nameCol = e.dataset.GraphNames(), e.ev.cols[name]
	}
	out := table{width: in.width}
	for _, name := range names {
		st, exists := e.dataset.Graph(name, false)
		if !exists {
			continue
		}
		rows := in
		if nameCol >= 0 {
			rows = table{width: in.width}
			nameID := e.idOf(name)
			for i := 0; i < in.n; i++ {
				if !unify(rows.add(in.row(i)), []int{nameCol}, []store.ID{nameID}) {
					rows.drop()
				}
			}
		}
		if rows.n == 0 {
			continue
		}
		g := e.forGraph(st)
		sols, err := g.evalGroup(ctx, gp.Group, e.translate(rows, g))
		if err != nil {
			return table{}, err
		}
		sols = g.translate(sols, e)
		out.n += sols.n
		out.ids = append(out.ids, sols.ids...)
	}
	return out, nil
}

// translate copies rows, which hold e's IDs, into the IDs the same terms have
// in to's graph. The origin columns are row numbers and stay as they are.
func (e *Engine) translate(rows table, to *Engine) table {
	out := table{width: rows.width, n: rows.n, ids: slices.Clone(rows.ids)}
	memo := make(map[store.ID]store.ID)
	for i := 0; i < rows.n; i++ {
		for c, id := range out.row(i)[:len(e.ev.vars)] {
			if id == store.NoID {
				continue
			}
			tid, ok := memo[id]
			if !ok {
				tid = to.idOf(e.terms.term(id))
				memo[id] = tid
			}
			out.ids[i*out.width+c] = tid
		}
	}
	return out
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
