// The differential test of the table evaluator: a naive reference (nested
// loops over Triples() and a Binding map per solution) answers seeded random
// queries, and the engine — planner on and planner off — has to agree. It
// lives in the external test package for the reason plan_ext_test.go does.
package sparql_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// naive evaluates a parsed query the slow, obvious way. Its rules are the
// engine's: a group's elements in order, its FILTERs over the group's final
// rows; an OPTIONAL or EXISTS group matched once per row with the row
// substituted; BIND and VALUES joining what the row holds.
type naive struct {
	def    []rdf.Triple
	graphs map[rdf.IRI][]rdf.Triple
	names  []rdf.IRI
}

var errNaive = errors.New("expression error")

// extend unifies pattern position pt with term ct under b.
func extend(b sparql.Binding, pt, ct rdf.Term) (sparql.Binding, bool) {
	v, isVar := pt.(sparql.Variable)
	if !isVar {
		return b, pt.Equal(ct)
	}
	if prev, ok := b[v]; ok {
		return b, prev.Equal(ct)
	}
	nb := sparql.Binding{v: ct}
	for k, t := range b {
		nb[k] = t
	}
	return nb, true
}

func (n *naive) group(g *sparql.GroupPattern, ts []rdf.Triple, in []sparql.Binding) []sparql.Binding {
	cur := in
	var filters []*sparql.Filter
	for _, el := range g.Elements {
		var next []sparql.Binding
		switch v := el.(type) {
		case *sparql.BGP:
			next = cur
			for _, tp := range v.Patterns {
				next = n.pattern(tp, ts, next)
			}
		case *sparql.Filter:
			filters = append(filters, v)
			continue
		case *sparql.Optional:
			for _, b := range cur {
				if ext := n.group(v.Group, ts, []sparql.Binding{b}); len(ext) > 0 {
					next = append(next, ext...)
				} else {
					next = append(next, b)
				}
			}
		case *sparql.Union:
			next = append(n.group(v.Left, ts, cur), n.group(v.Right, ts, cur)...)
		case *sparql.SubGroup:
			next = n.group(v.Group, ts, cur)
		case *sparql.GraphPattern:
			for _, b := range cur {
				for _, name := range n.names {
					if nb, ok := extend(b, v.Name, name); ok {
						next = append(next, n.group(v.Group, n.graphs[name], []sparql.Binding{nb})...)
					}
				}
			}
		case *sparql.Bind:
			for _, b := range cur {
				if val, err := n.expr(v.Expr, ts, b); err != nil {
					next = append(next, b)
				} else if nb, ok := extend(b, v.Var, val); ok {
					next = append(next, nb)
				}
			}
		case *sparql.Values:
			for _, b := range cur {
				for _, row := range v.Rows {
					nb, ok := b, true
					for i, cell := range row {
						if cell != nil && ok {
							nb, ok = extend(nb, v.Vars[i], cell)
						}
					}
					if ok {
						next = append(next, nb)
					}
				}
			}
		}
		cur = next
	}
	for _, f := range filters {
		var kept []sparql.Binding
		for _, b := range cur {
			if v, err := n.expr(f.Expr, ts, b); err == nil && v.Equal(rdf.NewBoolean(true)) {
				kept = append(kept, b)
			}
		}
		cur = kept
	}
	return cur
}

func (n *naive) pattern(tp sparql.TriplePattern, ts []rdf.Triple, in []sparql.Binding) []sparql.Binding {
	var out []sparql.Binding
	for _, b := range in {
		var pred rdf.Term
		switch pe := tp.Predicate.(type) {
		case sparql.Link:
			pred = pe.IRI
		case sparql.VarPath:
			pred = pe.Var
		}
		if pred != nil {
			for _, t := range ts {
				nb, ok := extend(b, tp.Subject, t.Subject)
				if ok {
					nb, ok = extend(nb, pred, t.Predicate)
				}
				if ok {
					nb, ok = extend(nb, tp.Object, t.Object)
				}
				if ok {
					out = append(out, nb)
				}
			}
			continue
		}
		// A path: from the subject if the row or the pattern fixes it, else
		// from every node of the graph.
		var starts []rdf.Term
		if s, isVar := tp.Subject.(sparql.Variable); !isVar {
			starts = []rdf.Term{tp.Subject}
		} else if bound, ok := b[s]; ok {
			starts = []rdf.Term{bound}
		} else {
			for _, t := range ts {
				starts = addNew(addNew(starts, t.Subject), t.Object)
			}
		}
		for _, s := range starts {
			for _, o := range reach(tp.Predicate, ts, s) {
				if nb, ok := extend(b, tp.Subject, s); ok {
					if nb, ok = extend(nb, tp.Object, o); ok {
						out = append(out, nb)
					}
				}
			}
		}
	}
	return out
}

func addNew(set []rdf.Term, t rdf.Term) []rdf.Term {
	for _, have := range set {
		if have.Equal(t) {
			return set
		}
	}
	return append(set, t)
}

// reach lists, each once, the terms path p leads to from a term.
func reach(p sparql.PathExpr, ts []rdf.Triple, from rdf.Term) []rdf.Term {
	var out []rdf.Term
	switch pe := p.(type) {
	case sparql.Link:
		for _, t := range ts {
			if t.Subject.Equal(from) && t.Predicate.Equal(pe.IRI) {
				out = addNew(out, t.Object)
			}
		}
	case sparql.Inverse:
		for _, t := range ts {
			if t.Object.Equal(from) && t.Predicate.Equal(pe.Path.(sparql.Link).IRI) {
				out = addNew(out, t.Subject)
			}
		}
	case sparql.Seq:
		for _, mid := range reach(pe.Left, ts, from) {
			for _, o := range reach(pe.Right, ts, mid) {
				out = addNew(out, o)
			}
		}
	case sparql.Alt:
		for _, o := range append(reach(pe.Left, ts, from), reach(pe.Right, ts, from)...) {
			out = addNew(out, o)
		}
	case sparql.Repeat:
		var seen []rdf.Term
		if pe.Min == 0 {
			seen, out = []rdf.Term{from}, []rdf.Term{from}
		}
		frontier := []rdf.Term{from}
		for depth := 1; len(frontier) > 0 && (pe.Max < 0 || depth <= pe.Max); depth++ {
			var next []rdf.Term
			for _, node := range frontier {
				for _, o := range reach(pe.Path, ts, node) {
					if grown := addNew(seen, o); len(grown) > len(seen) {
						seen, next, out = grown, append(next, o), append(out, o)
					}
				}
			}
			frontier = next
		}
	}
	return out
}

func (n *naive) expr(x sparql.Expression, ts []rdf.Triple, b sparql.Binding) (rdf.Term, error) {
	truth := func(x sparql.Expression) (bool, error) {
		v, err := n.expr(x, ts, b)
		if l, ok := v.(rdf.Literal); err == nil && ok && l.Datatype == rdf.XSDBoolean {
			return l.Bool()
		}
		return false, errNaive
	}
	switch v := x.(type) {
	case sparql.ExprConst:
		return v.Term, nil
	case sparql.ExprVar:
		if t, ok := b[v.Var]; ok {
			return t, nil
		}
		return nil, errNaive
	case sparql.ExprUnary: // "!" is the only one generated
		ok, err := truth(v.Expr)
		return rdf.NewBoolean(!ok), err
	case sparql.ExprCall: // BOUND is the only one generated
		_, bound := b[v.Args[0].(sparql.ExprVar).Var]
		return rdf.NewBoolean(bound), nil
	case sparql.ExprExists:
		return rdf.NewBoolean(len(n.group(v.Group, ts, []sparql.Binding{b})) > 0 != v.Negate), nil
	case sparql.ExprBinary:
		if v.Op == "&&" || v.Op == "||" {
			// Three-valued: an error on one side is recovered by a decisive
			// value on the other.
			l, lerr := truth(v.Left)
			r, rerr := truth(v.Right)
			decisive := v.Op == "||"
			switch {
			case lerr == nil && rerr == nil:
				return rdf.NewBoolean((l && r) || (decisive && (l || r))), nil
			case (lerr == nil && l == decisive) || (rerr == nil && r == decisive):
				return rdf.NewBoolean(decisive), nil
			}
			return nil, errNaive
		}
		l, lerr := n.expr(v.Left, ts, b)
		r, rerr := n.expr(v.Right, ts, b)
		if lerr != nil || rerr != nil {
			return nil, errNaive
		}
		ll, lIsLit := l.(rdf.Literal)
		rl, rIsLit := r.(rdf.Literal)
		cmp, comparable := 0, false
		if lIsLit && rIsLit {
			cmp, comparable = rdf.CompareLiterals(ll, rl)
		}
		switch v.Op {
		case "=", "!=":
			eq := l.Equal(r)
			switch {
			case comparable:
				eq = cmp == 0
			case lIsLit && rIsLit && (ll.Datatype != rl.Datatype || ll.Lang != rl.Lang):
				return nil, errNaive
			}
			return rdf.NewBoolean(eq == (v.Op == "=")), nil
		case "+": // on integers only
			li, lerr := ll.Int()
			ri, rerr := rl.Int()
			if !lIsLit || !rIsLit || lerr != nil || rerr != nil {
				return nil, errNaive
			}
			return rdf.NewInteger(li + ri), nil
		}
		if !comparable {
			return nil, errNaive
		}
		return rdf.NewBoolean(map[string]bool{"<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[v.Op]), nil
	}
	panic(fmt.Sprintf("naive: expression %T is not generated", x))
}

// rank orders terms as ORDER BY does: unbound, blank, IRI, literal; literals
// by value where they compare, anything else by its N-Triples form.
func rank(a, b rdf.Term) int {
	kind := func(t rdf.Term) int {
		switch {
		case t == nil:
			return 0
		case t.Kind() == rdf.KindBlank:
			return 1
		case t.Kind() == rdf.KindIRI:
			return 2
		}
		return 3
	}
	if ka, kb := kind(a), kind(b); ka != kb || ka == 0 {
		return ka - kb
	}
	if la, ok := a.(rdf.Literal); ok {
		if cmp, ok := rdf.CompareLiterals(la, b.(rdf.Literal)); ok {
			return cmp
		}
	}
	return strings.Compare(a.String(), b.String())
}

// aggregate computes one aggregate over a group the way aggregate.go says:
// rows where the argument is unbound are skipped.
func (n *naive) aggregate(a sparql.Aggregate, rows []sparql.Binding) rdf.Term {
	if a.Arg == nil {
		return rdf.NewInteger(int64(len(rows)))
	}
	var vals []rdf.Term
	for _, b := range rows {
		v, err := n.expr(a.Arg, nil, b)
		switch {
		case err != nil:
		case a.Distinct:
			vals = addNew(vals, v)
		default:
			vals = append(vals, v)
		}
	}
	switch a.Func {
	case sparql.AggCount:
		return rdf.NewInteger(int64(len(vals)))
	case sparql.AggSum: // over integers only
		sum := int64(0)
		for _, v := range vals {
			i, _ := v.(rdf.Literal).Int()
			sum += i
		}
		return rdf.NewInteger(sum)
	}
	var best rdf.Term // MIN or MAX: of the literals, by value
	for _, v := range vals {
		l, ok := v.(rdf.Literal)
		if !ok {
			continue
		}
		if best == nil {
			best = l
		} else if cmp, ok := rdf.CompareLiterals(l, best.(rdf.Literal)); ok && (cmp < 0) == (a.Func == sparql.AggMin) && cmp != 0 {
			best = l
		}
	}
	return best
}

// query answers q: the projection and the rows in order.
func (n *naive) query(q *sparql.Query) ([]sparql.Variable, []sparql.Binding) {
	sols := n.group(q.Where, n.def, []sparql.Binding{{}})
	vars := q.Vars
	if len(q.Aggregates) > 0 || len(q.GroupBy) > 0 {
		var keys []string
		groups := map[string][]sparql.Binding{}
		for _, b := range sols {
			k := rowKey(q.GroupBy, b)
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], b)
		}
		if len(q.GroupBy) == 0 && len(keys) == 0 {
			keys = []string{""}
		}
		sols = nil
		for _, k := range keys {
			out := sparql.Binding{}
			for _, v := range q.GroupBy {
				if t, ok := groups[k][0][v]; ok {
					out[v] = t
				}
			}
			for _, a := range q.Aggregates {
				if val := n.aggregate(a, groups[k]); val != nil {
					out[a.As] = val
				}
			}
			sols = append(sols, out)
		}
		vars = append([]sparql.Variable{}, q.Vars...)
		for _, a := range q.Aggregates {
			vars = append(vars, a.As)
		}
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.OrderBy {
				a, _ := n.expr(k.Expr, nil, sols[i])
				b, _ := n.expr(k.Expr, nil, sols[j])
				if cmp := rank(a, b); cmp != 0 {
					return (cmp < 0) != k.Desc
				}
			}
			return false
		})
	}
	if q.Distinct {
		seen := map[string]bool{}
		var out []sparql.Binding
		for _, b := range sols {
			if k := rowKey(vars, b); !seen[k] {
				seen[k] = true
				out = append(out, b)
			}
		}
		sols = out
	}
	sols = sols[min(q.Offset, len(sols)):]
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	return vars, sols
}

func rowKey(vars []sparql.Variable, b sparql.Binding) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

// randomQuery draws one query over the datagen vocabulary. Every operator of
// the evaluator has a chance to appear, FILTERs on either side of what binds
// their variables, and variables that only one branch or an OPTIONAL binds.
func randomQuery(r *rand.Rand, sc *datagen.Scenario) string {
	pick := func(options ...string) string { return options[r.Intn(len(options))] }
	site := func() string { return sc.Chemical.Sites[r.Intn(len(sc.Chemical.Sites))].IRI.String() }
	stream := func() string { return sc.Hydrology.Streams[r.Intn(len(sc.Hydrology.Streams))].IRI.String() }
	qty := func() string { return fmt.Sprint(100 + r.Intn(9900)) }
	ghost := "<http://grdf.org/app#nowhere>"

	var body []string
	var vars []string
	switch r.Intn(6) {
	case 0, 1: // sites and what hangs off them
		vars = []string{"?site"}
		body = []string{pick(
			"?site a app:ChemSite .",
			"VALUES ?site { "+site()+" "+site()+" "+ghost+" }",
			"{ ?site a app:ChemSite } UNION { ?site a app:HydroStream . ?site app:hasStreamName ?sn }",
			"VALUES (?site ?tag) { ("+site()+" \"a\") (UNDEF \"b\") ("+site()+" UNDEF) } ?site a app:ChemSite .")}
		if strings.Contains(body[0], "?tag") {
			vars = append(vars, "?tag")
		}
		if strings.Contains(body[0], "?sn") {
			vars = append(vars, "?sn")
		}
		for _, ext := range r.Perm(9)[:1+r.Intn(4)] {
			switch ext {
			case 0:
				body, vars = append(body, "?site app:hasSiteName ?name ."), append(vars, "?name")
			case 1:
				body, vars = append(body, "OPTIONAL { ?site app:hasContactPhone ?phone }"), append(vars, "?phone")
			case 2:
				f := "FILTER(?qty " + pick("<", ">=") + " " + qty() + ")"
				walk := "?site app:hasChemicalInfo ?info . ?info app:chemical ?rec . ?rec app:hasQuantityKg ?qty ."
				body, vars = append(body, pick(f+" "+walk, walk+" "+f)), append(vars, "?rec", "?qty")
			case 3:
				body = append(body, "FILTER "+pick("", "NOT ")+"EXISTS { ?site app:hasChemicalInfo ?i . ?i app:chemical ?c . ?c app:hasQuantityKg ?q . FILTER(?q > "+qty()+") }")
			case 4:
				body, vars = append(body, "OPTIONAL { ?site app:hasChemicalInfo ?oi . ?oi app:chemical ?orec . ?orec app:hasQuantityKg ?oq . FILTER(?oq > "+qty()+" && BOUND(?site)) }"), append(vars, "?orec", "?oq")
			case 5:
				body, vars = append(body, "GRAPH ?g { ?site app:hasSiteName ?gn }"), append(vars, "?g", "?gn")
			case 6:
				body, vars = append(body, "GRAPH <urn:g:chem> { ?site app:hasSiteId ?sid } BIND(?sid AS ?copy)"), append(vars, "?sid", "?copy")
			case 7:
				body, vars = append(body, "OPTIONAL { { ?site app:hasContactName ?who } UNION { ?site app:hasSiteId ?who } }"), append(vars, "?who")
			case 8:
				body = append(body, "FILTER(!BOUND(?phone) || ?site != "+site()+")")
			}
		}
	case 2: // chemical records, arithmetic, a FILTER ahead of its variable
		vars = []string{"?rec", "?qty", "?more"}
		body = []string{pick("FILTER(?more > "+qty()+")", ""), "?rec a app:ChemicalRecord . ?rec app:hasQuantityKg ?qty .",
			"BIND(?qty + " + pick("1", "1000") + " AS ?more)", pick("", "FILTER(?qty < "+qty()+")", "?rec app:hasChemName ?chem . FILTER(?chem = \"Chlorine\" || ?qty > "+qty()+")")}
	case 3: // streams and paths, zero-length ones too
		vars = []string{"?st", "?end"}
		from := pick("?st", "?st", stream(), ghost)
		body = []string{pick("?st a app:HydroStream .", "?st app:flowsInto ?mid ."),
			from + " " + pick("app:flowsInto*", "app:flowsInto+", "app:flowsInto?", "app:flowsInto/app:flowsInto", "(app:flowsInto|^app:flowsInto)", "(app:linksTo)*", "app:linksTo+") + " ?end ."}
		if r.Intn(3) == 0 {
			body, vars = append(body, "OPTIONAL { ?end app:hasStreamName ?en }"), append(vars, "?en")
		}
	case 4: // one variable twice, predicates as variables
		vars = []string{"?x", "?p"}
		body = []string{pick("?x ?p ?x .", "?x ?p ?x . ?x ?q ?y .", "?x app:linksTo ?y . ?y ?p ?x .", site()+" ?p ?x .")}
	case 5: // both graphs, joined through the default one
		vars = []string{"?g", "?s", "?n"}
		body = []string{pick("GRAPH ?g { ?s a ?c } ?s app:hasSiteName ?n .", "?s app:hasStreamName ?n . GRAPH ?g { ?s app:flowsInto ?d }",
			"GRAPH ?g { ?s app:hasSiteName ?n } GRAPH ?h { ?s app:hasSiteId ?i } FILTER(?g = ?h)", "BIND(<urn:g:hydro> AS ?g) GRAPH ?g { ?s app:hasStreamName ?n }")}
	}
	where := "{ " + strings.Join(body, " ") + " }"

	if r.Intn(5) == 0 { // GROUP BY and aggregates over the same rows
		by := vars[0]
		arg := vars[len(vars)-1]
		aggs := "(COUNT(*) AS ?cnt) (COUNT(DISTINCT " + arg + ") AS ?dc) (MIN(" + arg + ") AS ?lo) (MAX(" + arg + ") AS ?hi)"
		if strings.Contains(where, "?qty") {
			aggs += " (SUM(?qty) AS ?sum)"
		}
		return pick("SELECT "+by+" "+aggs+" WHERE "+where+" GROUP BY "+by, "SELECT "+aggs+" WHERE "+where)
	}
	r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	proj := vars[:1+r.Intn(len(vars))]
	q := "SELECT " + pick("", "", "DISTINCT ") + strings.Join(proj, " ") + " WHERE " + where
	switch r.Intn(4) {
	case 0: // a total order over what is projected, so a window is well defined
		q += " ORDER BY " + strings.Join(proj, " ") + pick("", " LIMIT 5", " OFFSET 2 LIMIT 4", " OFFSET 1000")
	case 1:
		q += " ORDER BY " + pick(proj[0], "DESC("+proj[0]+")")
	}
	return q
}

// TestEvalEqualsNaive: on seeded random queries over three generated
// scenarios — the default graph beside two named graphs with dictionaries of
// their own — the table evaluator with the planner on, and with it off, gives
// the reference's rows: the same multiset, and under ORDER BY the same
// sequence of sort keys.
func TestEvalEqualsNaive(t *testing.T) {
	app := func(s string) rdf.IRI { return rdf.IRI(rdf.AppNS + s) }
	answered := 0
	for i, sites := range []int{3, 7, 12} {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: int64(40 + i), Sites: sites, Trunks: 1 + i%2})
		ds := store.NewDataset()
		ds.Default().AddAll(sc.Merged.Triples())
		// What the generator does not make: a self-loop, a cycle, a dead end.
		ds.Default().AddAll([]rdf.Triple{
			rdf.T(app("loop"), app("linksTo"), app("loop")), rdf.T(app("loop"), app("linksTo"), app("a")),
			rdf.T(app("a"), app("linksTo"), app("b")), rdf.T(app("b"), app("linksTo"), app("a")), rdf.T(app("b"), app("linksTo"), rdf.NewString("end")),
		})
		hydro, _ := ds.Graph("urn:g:hydro", true)
		hydro.AddAll(sc.Hydrology.Store.Triples())
		chem, _ := ds.Graph("urn:g:chem", true)
		chem.AddAll(sc.Chemical.Store.Triples())
		ref := &naive{def: ds.Default().Triples(), names: ds.GraphNames(),
			graphs: map[rdf.IRI][]rdf.Triple{"urn:g:hydro": hydro.Triples(), "urn:g:chem": chem.Triples()}}
		planned, unplanned := sparql.NewDatasetEngine(ds), sparql.NewDatasetEngine(ds).SetPlanning(false)

		r := rand.New(rand.NewSource(int64(1000 + i)))
		for k := 0; k < 150; k++ {
			src := randomQuery(r, sc)
			q, err := sparql.ParseQuery(src, nil)
			if err != nil {
				t.Fatalf("generated query does not parse: %v\n%s", err, src)
			}
			vars, rows := ref.query(q)
			want := make([]string, len(rows))
			for j, b := range rows {
				want[j] = rowKey(vars, b)
			}
			if len(rows) > 0 {
				answered++
			}
			for name, eng := range map[string]*sparql.Engine{"planner on": planned, "planner off": unplanned} {
				res, err := eng.Eval(q)
				if err != nil {
					t.Fatalf("%s: %v\n%s", name, err, src)
				}
				bs := res.Bindings()
				got := make([]string, len(bs))
				for j, b := range bs {
					got[j] = rowKey(res.Vars, b)
				}
				if len(q.OrderBy) > 0 {
					// Rows that tie on the keys may come in any order: the
					// sequences compared are the keys'.
					var keys []sparql.Variable
					for _, ok := range q.OrderBy {
						keys = append(keys, ok.Expr.(sparql.ExprVar).Var)
					}
					for j := 0; j < len(rows) && j < len(bs); j++ {
						if g, w := rowKey(keys, bs[j]), rowKey(keys, rows[j]); g != w {
							t.Fatalf("%s, %d sites: row %d sorts as %q, want %q\n%s", name, sites, j, g, w, src)
						}
					}
				}
				sort.Strings(got)
				sorted := append([]string{}, want...)
				sort.Strings(sorted)
				if fmt.Sprint(res.Vars) != fmt.Sprint(vars) || strings.Join(got, "\n") != strings.Join(sorted, "\n") {
					t.Fatalf("%s, %d sites: %d rows over %v, want %d over %v\n%s\n got %q\nwant %q", name, sites, len(got), res.Vars, len(sorted), vars, src, got, sorted)
				}
			}
		}
	}
	if answered < 250 {
		t.Errorf("only %d of 450 queries had an answer; the comparison is close to vacuous", answered)
	}
}
