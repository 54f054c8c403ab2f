package sparql

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The evaluator's solutions are tables of dictionary IDs. Before the first
// row exists every variable of the query has a column (see newEvaluation); a
// solution set is then width IDs per row, row after row in one slice, with
// NoID for "unbound". Every operator takes a table and makes a table — a join
// step copies the parent row and sets the columns the pattern binds, a FILTER
// copies the rows it keeps — and terms are looked up only where a value is
// needed: in an expression, a sort key, the response.
//
// A term the pinned dictionary has never seen (a BIND or aggregate value, a
// VALUES constant, the endpoint of a zero-length path) gets a scratch ID for
// the length of the evaluation, so that inside one evaluation two cells hold
// the same ID exactly when they hold the same term, and nothing needs a second
// representation.

// table is a solution set: n rows of width IDs each, row-major.
type table struct {
	width int
	n     int // kept beside ids: a query without variables has rows of width 0
	ids   []store.ID
}

// row returns row i. It aliases the table: operators read their input's rows
// and never write them.
func (t *table) row(i int) []store.ID {
	return t.ids[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// add appends a copy of row and returns it for the caller to set columns in;
// the returned slice is good until the next add.
func (t *table) add(row []store.ID) []store.ID {
	base := len(t.ids)
	t.ids = append(t.ids, row...)
	t.n++
	return t.ids[base:]
}

// drop takes back the row add just returned.
func (t *table) drop() {
	t.n--
	t.ids = t.ids[:len(t.ids)-t.width]
}

// slice returns rows [lo, hi) of t, sharing its memory.
func (t table) slice(lo, hi int) table {
	return table{width: t.width, n: hi - lo, ids: t.ids[lo*t.width : hi*t.width]}
}

// sortedStable returns the rows of t in the order less puts their numbers,
// rows it does not tell apart staying as they were.
func (t table) sortedStable(less func(a, b int) bool) table {
	idx := make([]int, t.n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	out := table{width: t.width, ids: make([]store.ID, 0, len(t.ids))}
	for _, i := range idx {
		out.add(t.row(i))
	}
	return out
}

// tupleKey appends the IDs row holds in cols to key: inside one evaluation
// equal IDs are equal terms, so the bytes identify the tuple of terms.
func tupleKey(key []byte, row []store.ID, cols []int) []byte {
	for _, c := range cols {
		key = binary.LittleEndian.AppendUint32(key, uint32(row[c]))
	}
	return key
}

// scratchTop is the first scratch ID; they count down from it. A dictionary
// would need four billion terms to reach them.
const scratchTop = ^store.ID(0)

// scratch holds the terms of one evaluation that no dictionary ID stands for,
// deduplicated: a term has one scratch ID however often it is made.
type scratch struct {
	terms []rdf.Term // terms[i] has ID scratchTop-i
	ids   map[rdf.Term]store.ID
}

func (s *scratch) id(t rdf.Term) store.ID {
	if id, ok := s.ids[t]; ok {
		return id
	}
	if s.ids == nil {
		s.ids = make(map[rdf.Term]store.ID)
	}
	id := scratchTop - store.ID(len(s.terms))
	s.terms = append(s.terms, t)
	s.ids[t] = id
	return id
}

// terms resolves the IDs of one graph's rows: through the dictionary of the
// graph's pinned version, then through the evaluation's scratch terms.
type terms struct {
	dict    store.DictView
	scratch *scratch
}

func (r terms) term(id store.ID) rdf.Term {
	if t := r.dict.Term(id); t != nil {
		return t
	}
	if i := int(scratchTop - id); i < len(r.scratch.terms) {
		return r.scratch.terms[i]
	}
	return nil // NoID
}

// idOf returns the ID t has in rows of the engine's graph: its dictionary ID
// if the pinned version can resolve it, else a scratch ID. (A term interned
// after the version was pinned has a dictionary ID the version's view cannot
// turn back into the term; no row of this version holds it.)
func (e *Engine) idOf(t rdf.Term) store.ID {
	if id, ok := e.store.LookupID(t); ok && int(id) <= e.terms.dict.Len() {
		return id
	}
	return e.terms.scratch.id(t)
}

// evaluation is what one Eval call works out about its query before the first
// row, and the state its graphs share while it runs.
type evaluation struct {
	// cols gives every variable of the query its column; vars is the inverse.
	cols map[Variable]int
	vars []Variable
	// width is the row width: len(vars) columns of term IDs, then one column
	// per level of OPTIONAL nesting, in which a left join keeps the number of
	// the row each of its rows came from (see evalOptional).
	width int
	// depth counts the OPTIONALs being evaluated around the current group.
	depth int
	// late holds the FILTERs that run at the end of their group (see place).
	late map[*Filter]bool
	// stats accumulates what the join steps did, across every graph the
	// evaluation visits.
	stats EvalStats
}

func newEvaluation(q *Query) *evaluation {
	ev := &evaluation{cols: make(map[Variable]int)}
	add := func(v Variable) {
		if _, ok := ev.cols[v]; !ok {
			ev.cols[v] = len(ev.vars)
			ev.vars = append(ev.vars, v)
		}
	}
	groupVars(q.Where, add)
	for _, v := range q.Vars {
		add(v)
	}
	for _, v := range q.GroupBy {
		add(v)
	}
	for _, a := range q.Aggregates {
		add(a.As)
		if a.Arg != nil {
			exprVars(a.Arg, add)
		}
	}
	for _, k := range q.OrderBy {
		exprVars(k.Expr, add)
	}
	for _, tp := range q.Template {
		patternVarsDo(tp, add)
	}
	for _, t := range q.DescribeTargets {
		if v, ok := t.(Variable); ok {
			add(v)
		}
	}
	origins := 0
	ev.place(q.Where, make([]bool, len(ev.vars)), 0, &origins)
	ev.width = len(ev.vars) + origins
	return ev
}

// groupVars calls fn for every mention of a variable in g, nested groups and
// expressions included.
func groupVars(g *GroupPattern, fn func(Variable)) {
	for _, el := range g.Elements {
		switch v := el.(type) {
		case *BGP:
			for _, tp := range v.Patterns {
				patternVarsDo(tp, fn)
			}
		case *Filter:
			exprVars(v.Expr, fn)
		case *Optional:
			groupVars(v.Group, fn)
		case *Union:
			groupVars(v.Left, fn)
			groupVars(v.Right, fn)
		case *SubGroup:
			groupVars(v.Group, fn)
		case *GraphPattern:
			if name, ok := v.Name.(Variable); ok {
				fn(name)
			}
			groupVars(v.Group, fn)
		case *Bind:
			exprVars(v.Expr, fn)
			fn(v.Var)
		case *Values:
			for _, vv := range v.Vars {
				fn(vv)
			}
		}
	}
}

func patternVarsDo(tp TriplePattern, fn func(Variable)) {
	if v, ok := tp.Subject.(Variable); ok {
		fn(v)
	}
	var path func(PathExpr)
	path = func(p PathExpr) {
		switch pe := p.(type) {
		case VarPath:
			fn(pe.Var)
		case Inverse:
			path(pe.Path)
		case Seq:
			path(pe.Left)
			path(pe.Right)
		case Alt:
			path(pe.Left)
			path(pe.Right)
		case Repeat:
			path(pe.Path)
		}
	}
	path(tp.Predicate)
	if v, ok := tp.Object.(Variable); ok {
		fn(v)
	}
}

// exprVars calls fn for every variable x mentions; an EXISTS mentions every
// variable of its group, because the group is matched with all of them
// substituted.
func exprVars(x Expression, fn func(Variable)) {
	switch v := x.(type) {
	case ExprVar:
		fn(v.Var)
	case ExprUnary:
		exprVars(v.Expr, fn)
	case ExprBinary:
		exprVars(v.Left, fn)
		exprVars(v.Right, fn)
	case ExprCall:
		for _, a := range v.Args {
			exprVars(a, fn)
		}
	case ExprExists:
		groupVars(v.Group, fn)
	}
}

// place decides where the FILTERs of g run. A group's FILTERs constrain the
// whole group (SPARQL 1.1 §5.2.2), whatever their position in it. One whose
// every variable is certainly bound where it stands gives the same verdict
// there as at the end — bindings are only ever added to a row — so it runs
// there and prunes early; any other runs at the end of the group (ev.late).
// bound[c] says column c holds a value in every row that reaches the element
// being looked at; place updates it to what holds after g. depth is the
// number of OPTIONALs around g, *origins the deepest nesting seen.
func (ev *evaluation) place(g *GroupPattern, bound []bool, depth int, origins *int) {
	mark := func(v Variable) { bound[ev.cols[v]] = true }
	var late []*Filter
	for _, el := range g.Elements {
		switch v := el.(type) {
		case *BGP:
			for _, tp := range v.Patterns {
				patternVarsDo(tp, mark)
			}
		case *Filter:
			certain := true
			exprVars(v.Expr, func(fv Variable) { certain = certain && bound[ev.cols[fv]] })
			if certain {
				ev.placeExists(v.Expr, bound, depth, origins)
			} else {
				late = append(late, v)
			}
		case *Optional:
			*origins = max(*origins, depth+1)
			ev.place(v.Group, slices.Clone(bound), depth+1, origins)
		case *Union:
			left, right := slices.Clone(bound), slices.Clone(bound)
			ev.place(v.Left, left, depth, origins)
			ev.place(v.Right, right, depth, origins)
			for c := range bound {
				bound[c] = left[c] && right[c]
			}
		case *SubGroup:
			ev.place(v.Group, bound, depth, origins)
		case *GraphPattern:
			ev.place(v.Group, bound, depth, origins)
			if name, ok := v.Name.(Variable); ok {
				mark(name)
			}
		case *Bind:
			// An expression error leaves the variable unbound: not certain.
			ev.placeExists(v.Expr, bound, depth, origins)
		case *Values:
			for i, vv := range v.Vars {
				if !slices.ContainsFunc(v.Rows, func(row []rdf.Term) bool { return row[i] == nil }) {
					mark(vv)
				}
			}
		}
	}
	for _, f := range late {
		if ev.late == nil {
			ev.late = make(map[*Filter]bool)
		}
		ev.late[f] = true
		ev.placeExists(f.Expr, bound, depth, origins)
	}
}

// placeExists places the FILTERs of the EXISTS groups inside x, which see the
// rows of the element x belongs to.
func (ev *evaluation) placeExists(x Expression, bound []bool, depth int, origins *int) {
	switch v := x.(type) {
	case ExprUnary:
		ev.placeExists(v.Expr, bound, depth, origins)
	case ExprBinary:
		ev.placeExists(v.Left, bound, depth, origins)
		ev.placeExists(v.Right, bound, depth, origins)
	case ExprCall:
		for _, a := range v.Args {
			ev.placeExists(a, bound, depth, origins)
		}
	case ExprExists:
		ev.place(v.Group, slices.Clone(bound), depth, origins)
	}
}

// Binding maps variables to terms. A nil entry never occurs; unbound
// variables are simply absent.
type Binding map[Variable]rdf.Term

// Result carries the outcome of a query. A SELECT's solutions stay the table
// of IDs the evaluation ended with: Len, Term and Vars read it in place, and
// Bindings builds the map-per-row form for callers that want maps.
type Result struct {
	Kind  QueryKind
	Vars  []Variable // SELECT projection (resolved, in order)
	Bool  bool       // ASK outcome
	Graph *rdf.Graph // CONSTRUCT and DESCRIBE output
	// Stats is what the evaluation that produced the result did.
	Stats EvalStats

	rows  table
	cols  []int // Vars[i] is column cols[i] of rows
	terms terms
	cells *Cells // the engine's, if it has any
}

// Len returns the number of SELECT solutions.
func (r *Result) Len() int { return r.rows.n }

// Term returns what solution row binds Vars[col] to, or nil when it leaves
// the variable unbound.
func (r *Result) Term(row, col int) rdf.Term {
	return r.terms.term(r.rows.ids[row*r.rows.width+r.cols[col]])
}

// Bindings returns the SELECT solutions as one map per row, built on each
// call.
func (r *Result) Bindings() []Binding {
	if r.Kind != Select {
		return nil
	}
	out := make([]Binding, r.Len())
	for i := range out {
		b := make(Binding, len(r.Vars))
		for c, v := range r.Vars {
			if t := r.Term(i, c); t != nil {
				b[v] = t
			}
		}
		out[i] = b
	}
	return out
}
