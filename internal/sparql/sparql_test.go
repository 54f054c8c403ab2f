package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// fixture builds a small feature dataset used across the tests.
func fixture(t *testing.T) *Engine {
	t.Helper()
	doc := `
@prefix ex: <http://e/> .
ex:stream1 a grdf:Feature ;
    ex:name "Rowlett Creek" ;
    ex:length 12.5 ;
    ex:flowsInto ex:stream2 .
ex:stream2 a grdf:Feature ;
    ex:name "Trinity River" ;
    ex:length 710 ;
    ex:flowsInto ex:gulf .
ex:gulf a grdf:Feature ;
    ex:name "Gulf of Mexico" .
ex:site1 a ex:ChemSite ;
    ex:name "North Texas Energy" ;
    ex:nearTo ex:stream1 ;
    ex:risk 4 .
ex:site2 a ex:ChemSite ;
    ex:name "Collin Chemicals" ;
    ex:risk 2 .
ex:stream1 rdfs:label "creek"@en .
`
	g, err := turtle.ParseString(doc)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return NewEngine(store.FromGraph(g))
}

func sel(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/> SELECT ?s WHERE { ?s a grdf:Feature }`)
	if len(res.Bindings()) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Bindings()))
	}
}

func TestSelectJoin(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?name WHERE { ?site a ex:ChemSite . ?site ex:nearTo ?st . ?st ex:name ?name }`)
	if len(res.Bindings()) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if got := res.Bindings()[0][Variable("name")]; !got.Equal(rdf.NewString("Rowlett Creek")) {
		t.Errorf("name = %v", got)
	}
}

func TestSelectStar(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/> SELECT * WHERE { ex:site1 ex:risk ?r }`)
	if len(res.Vars) != 1 || res.Vars[0] != "r" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestFilterComparison(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r > 3) }`)
	if len(res.Bindings()) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if got := res.Bindings()[0][Variable("s")]; !got.Equal(rdf.IRI("http://e/site1")) {
		t.Errorf("s = %v", got)
	}
}

func TestFilterLogicAndFunctions(t *testing.T) {
	e := fixture(t)
	cases := []struct {
		q    string
		rows int
	}{
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r > 1 && ?r < 3) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r = 4 || ?r = 2) }`, 2},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(!(?r = 4)) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(CONTAINS(?n, "Creek")) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(STRSTARTS(?n, "North")) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(REGEX(?n, "^t", "i")) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(STRLEN(?n) = 13) }`, 2},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r + 1 = 5) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(ISNUMERIC(?r)) }`, 2},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(ISLITERAL(?n) && ISIRI(?s)) }`, 5},
		{`SELECT ?s WHERE { ?s rdfs:label ?l . FILTER(LANG(?l) = "en") }`, 1},
		{`SELECT ?s WHERE { ?s rdfs:label ?l . FILTER(LANGMATCHES(LANG(?l), "*")) }`, 1},
	}
	for _, c := range cases {
		res := sel(t, e, c.q)
		if len(res.Bindings()) != c.rows {
			t.Errorf("%s\n rows = %d, want %d", c.q, len(res.Bindings()), c.rows)
		}
	}
}

func TestOptional(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?site ?st WHERE { ?site a ex:ChemSite . OPTIONAL { ?site ex:nearTo ?st } }`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	boundCount := 0
	for _, b := range res.Bindings() {
		if _, ok := b[Variable("st")]; ok {
			boundCount++
		}
	}
	if boundCount != 1 {
		t.Errorf("bound st rows = %d, want 1", boundCount)
	}
}

func TestOptionalWithBoundFilter(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?site WHERE { ?site a ex:ChemSite . OPTIONAL { ?site ex:nearTo ?st } FILTER(!BOUND(?st)) }`)
	if len(res.Bindings()) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if got := res.Bindings()[0][Variable("site")]; !got.Equal(rdf.IRI("http://e/site2")) {
		t.Errorf("site = %v", got)
	}
}

func TestUnion(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?x WHERE { { ?x a ex:ChemSite } UNION { ?x a grdf:Feature } }`)
	if len(res.Bindings()) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Bindings()))
	}
}

func TestDistinctOrderLimitOffset(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT DISTINCT ?r WHERE { ?s ex:risk ?r } ORDER BY DESC(?r)`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if !res.Bindings()[0][Variable("r")].Equal(rdf.NewInteger(4)) {
		t.Errorf("first = %v", res.Bindings()[0][Variable("r")])
	}

	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if !res.Bindings()[0][Variable("n")].Equal(rdf.NewString("Gulf of Mexico")) {
		t.Errorf("offset row = %v", res.Bindings()[0][Variable("n")])
	}
}

func TestAsk(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/> ASK { ex:site1 ex:risk 4 }`)
	if !res.Bool {
		t.Error("ASK = false, want true")
	}
	res = sel(t, e, `PREFIX ex: <http://e/> ASK { ex:site1 ex:risk 5 }`)
	if res.Bool {
		t.Error("ASK = true, want false")
	}
}

func TestConstruct(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
CONSTRUCT { ?s ex:riskyName ?n } WHERE { ?s ex:risk ?r . ?s ex:name ?n . FILTER(?r > 3) }`)
	if res.Graph.Len() != 1 {
		t.Fatalf("graph len = %d:\n%s", res.Graph.Len(), res.Graph)
	}
	if !res.Graph.Has(rdf.T(rdf.IRI("http://e/site1"), rdf.IRI("http://e/riskyName"), rdf.NewString("North Texas Energy"))) {
		t.Errorf("constructed graph wrong:\n%s", res.Graph)
	}
}

func TestPropertyPathSeq(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?n WHERE { ex:stream1 ex:flowsInto/ex:name ?n }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0][Variable("n")].Equal(rdf.NewString("Trinity River")) {
		t.Errorf("seq path = %v", res.Bindings())
	}
}

func TestPropertyPathPlusStar(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?x WHERE { ex:stream1 ex:flowsInto+ ?x }`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("plus path rows = %d, want 2", len(res.Bindings()))
	}
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?x WHERE { ex:stream1 ex:flowsInto* ?x }`)
	if len(res.Bindings()) != 3 { // includes stream1 itself
		t.Fatalf("star path rows = %d, want 3", len(res.Bindings()))
	}
}

func TestPropertyPathInverseAlt(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?x WHERE { ex:stream2 ^ex:flowsInto ?x }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0][Variable("x")].Equal(rdf.IRI("http://e/stream1")) {
		t.Errorf("inverse path = %v", res.Bindings())
	}
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?x WHERE { ex:site1 (ex:nearTo|ex:risk) ?x }`)
	if len(res.Bindings()) != 2 {
		t.Errorf("alt path rows = %d", len(res.Bindings()))
	}
}

func TestPredicateVariable(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?p ?o WHERE { ex:gulf ?p ?o }`)
	if len(res.Bindings()) != 2 {
		t.Errorf("rows = %d", len(res.Bindings()))
	}
}

func TestCustomFunction(t *testing.T) {
	e := fixture(t)
	e.RegisterFunc(rdf.IRI(rdf.GRDFNS+"alwaysTrue"), func(_ store.StoreView, args []rdf.Term) (rdf.Term, error) {
		return rdf.NewBoolean(true), nil
	})
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:ChemSite . FILTER(grdf:alwaysTrue(?s)) }`)
	if len(res.Bindings()) != 2 {
		t.Errorf("rows = %d", len(res.Bindings()))
	}
}

// TestProberSeedsTheJoin: a function registered with a prober has its FILTER
// against a constant answered by probing first — the join starts from the
// candidates, so a term the prober leaves out is never a row — and by the
// FILTER second, so a candidate the function rejects is not a row either.
// The candidates start a join only where they replace a scan that reads at
// least as much: not when they outnumber it, and never at a BGP that joins
// the rows it is given.
func TestProberSeedsTheJoin(t *testing.T) {
	e := fixture(t)
	id := func(local string) store.ID {
		got, ok := e.Store().LookupID(rdf.IRI("http://e/" + local))
		if !ok {
			t.Fatalf("%s is not in the dictionary", local)
		}
		return got
	}
	byStream1 := rdf.IRI("http://e/byStream1")
	calls := 0
	e.RegisterFunc(byStream1, func(_ store.StoreView, args []rdf.Term) (rdf.Term, error) {
		calls++
		return rdf.NewBoolean(args[0].Equal(rdf.IRI("http://e/site1")) || args[0].Equal(rdf.IRI("http://e/stream1"))), nil
	})
	var asked []rdf.Term
	e.RegisterProber(byStream1, Prober{Candidates: func(_ store.StoreView, k rdf.Term, _ float64) []store.ID {
		asked = append(asked, k)
		ids := []store.ID{id("site1"), id("site2"), id("gulf")} // more than the function accepts, and not stream1
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}})
	run := func(q string) (rows []Binding, plan string) {
		t.Helper()
		calls, asked = 0, nil
		rows = sel(t, e, q).Bindings()
		ranCalls, ranAsked := calls, asked
		plan, err := e.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		calls, asked = ranCalls, ranAsked
		return rows, plan
	}

	// Five terms have a name, three are candidates: the join starts from them.
	rows, plan := run(`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(ex:byStream1(?s, ex:stream1)) }`)
	if len(rows) != 1 || !rows[0]["s"].Equal(rdf.IRI("http://e/site1")) {
		t.Errorf("probed rows = %v, want site1 alone", rows)
	}
	if calls != 3 || len(asked) != 1 || !asked[0].Equal(rdf.IRI("http://e/stream1")) {
		t.Errorf("the function ran on %d rows and the prober was asked about %v; want the 3 candidates, stream1 once", calls, asked)
	}
	if !strings.HasPrefix(plan, "spatial probe: 3 candidates for ?s") || strings.Contains(plan, "not used") {
		t.Errorf("plan = %q", plan)
	}

	// Two terms are ChemSites: three candidates are no short cut, and stay out.
	rows, plan = run(`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s a ex:ChemSite . FILTER(ex:byStream1(?s, ex:stream1)) }`)
	if len(rows) != 1 || calls != 2 || len(asked) != 1 {
		t.Errorf("outnumbered scan: %d rows from %d calls, prober asked %d times; want site1 from both sites, asked once", len(rows), calls, len(asked))
	}
	if !strings.HasPrefix(plan, "spatial probe: 3 candidates for ?s") || !strings.Contains(plan, "not used, a scan reads 2") {
		t.Errorf("plan = %q", plan)
	}

	// The BGP that binds ?s joins the rows before it through ?t: it is not
	// started over from the candidates once per row, and nobody asks for them.
	rows, plan = run(`PREFIX ex: <http://e/> SELECT ?s WHERE { ?t ex:flowsInto ?u . OPTIONAL { ?t ex:length ?l } ?s ex:nearTo ?t . ?s ex:name ?n . FILTER(ex:byStream1(?s, ex:stream1)) }`)
	if len(rows) != 1 || calls != 1 || len(asked) != 0 || strings.Contains(plan, "spatial probe") {
		t.Errorf("joining BGP: %d rows from %d calls, prober asked %d times; want 1, 1, 0\n%s", len(rows), calls, len(asked), plan)
	}

	// A group evaluated once per outer row asks the index once per query.
	rows, _ = run(`PREFIX ex: <http://e/> SELECT ?t ?s WHERE { ?t a grdf:Feature . OPTIONAL { ?s ex:name ?n . FILTER(ex:byStream1(?s, ex:stream1)) } }`)
	if len(rows) != 3 || calls != 9 || len(asked) != 1 {
		t.Errorf("probe inside OPTIONAL: %d rows from %d calls, prober asked %d times; want 3, 9, 1", len(rows), calls, len(asked))
	}
	for _, b := range rows {
		if !b["s"].Equal(rdf.IRI("http://e/site1")) {
			t.Errorf("probe inside OPTIONAL: row %v, want ?s = site1", b)
		}
	}
}

func TestUnknownCustomFunctionEliminates(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:ChemSite . FILTER(grdf:noSuchFn(?s)) }`)
	if len(res.Bindings()) != 0 {
		t.Errorf("rows = %d, want 0 (errors eliminate solutions)", len(res.Bindings()))
	}
}

func TestSubGroup(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { { ?s a ex:ChemSite . ?s ex:risk ?r } FILTER(?r = 2) }`)
	if len(res.Bindings()) != 1 {
		t.Errorf("rows = %d", len(res.Bindings()))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?s`,
		`SELECT ?s WHERE { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o`,
		`FROB ?s WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o } ORDER`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT x`,
		`SELECT ?s WHERE { "lit" ?p ?o }`,
		`SELECT ?s WHERE { ?s unknown:p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o } extra`,
		`SELECT ?s WHERE { FILTER() }`,
	}
	for _, q := range bad {
		if _, err := ParseQuery(q, nil); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := ParseQuery("SELECT ?s WHERE {\n ?s ?p }", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d: %v", pe.Line, err)
	}
	if !strings.Contains(pe.Error(), "sparql:") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestEmptyGroupMatchesOnce(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `ASK {}`)
	if !res.Bool {
		t.Error("ASK {} should be true")
	}
}

func TestFilterTypeErrorEliminates(t *testing.T) {
	e := fixture(t)
	// Comparing a string to an integer is a type error: row eliminated, not
	// a query failure.
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:name ?n . FILTER(?n > 3) }`)
	if len(res.Bindings()) != 0 {
		t.Errorf("rows = %d", len(res.Bindings()))
	}
}

// TestFilterConstrainsItsWholeGroup: SPARQL 1.1 §5.2.2 — a FILTER restricts
// the solutions of the group it is written in, wherever in the group that is.
// One written ahead of the pattern that binds its variable used to run there,
// fail on every row and leave nothing.
func TestFilterConstrainsItsWholeGroup(t *testing.T) {
	e := fixture(t)
	rows := func(q string) string {
		res := sel(t, e, "PREFIX ex: <http://e/> "+q)
		var out []string
		for i := 0; i < res.Len(); i++ {
			var cells []string
			for c := range res.Vars {
				cells = append(cells, fmt.Sprint(res.Term(i, c)))
			}
			out = append(out, strings.Join(cells, " "))
		}
		sort.Strings(out)
		return strings.Join(out, "; ")
	}
	for _, c := range []struct{ name, forward, reversed string }{
		{"ahead of its pattern", `SELECT ?s WHERE { ?s ex:length ?x FILTER(?x > 1) }`, `SELECT ?s WHERE { FILTER(?x > 1) ?s ex:length ?x }`},
		{"between two patterns", `SELECT ?s ?n WHERE { ?s ex:risk ?r . ?s ex:name ?n FILTER(?r > 3 && STRLEN(?n) > 0) }`, `SELECT ?s ?n WHERE { ?s ex:risk ?r FILTER(?r > 3 && STRLEN(?n) > 0) ?s ex:name ?n }`},
		{"ahead of the OPTIONAL it asks about", `SELECT ?s WHERE { ?s a ex:ChemSite OPTIONAL { ?s ex:nearTo ?t } FILTER(!BOUND(?t)) }`, `SELECT ?s WHERE { ?s a ex:ChemSite FILTER(!BOUND(?t)) OPTIONAL { ?s ex:nearTo ?t } }`},
		{"inside an OPTIONAL", `SELECT ?s ?l WHERE { ?s a grdf:Feature OPTIONAL { ?s ex:length ?l FILTER(?l > 100) } }`, `SELECT ?s ?l WHERE { ?s a grdf:Feature OPTIONAL { FILTER(?l > 100) ?s ex:length ?l } }`},
		{"NOT EXISTS ahead of what it substitutes", `SELECT ?s WHERE { ?s ex:name ?n . ?s ex:risk ?r FILTER NOT EXISTS { ?s ex:risk ?r FILTER(?r > 3) } }`, `SELECT ?s WHERE { ?s ex:name ?n FILTER NOT EXISTS { ?s ex:risk ?r FILTER(?r > 3) } ?s ex:risk ?r }`},
	} {
		want := rows(c.forward)
		if want == "" {
			t.Fatalf("%s: the forward query has no rows; the comparison is vacuous", c.name)
		}
		if got := rows(c.reversed); got != want {
			t.Errorf("%s: reversed = %q, forward = %q", c.name, got, want)
		}
	}
	plan, err := e.Explain(`PREFIX ex: <http://e/> SELECT ?s WHERE { FILTER(?x > 1) ?s ex:length ?x FILTER(?x < 1000) }`)
	if err != nil {
		t.Fatal(err)
	}
	first, second := strings.Index(plan, "FILTER (?x < "), strings.Index(plan, "FILTER (?x > ")
	if first < 0 || second < first || !strings.Contains(plan[first:second], "runs where it stands") || !strings.Contains(plan[second:], "runs at the end of its group") {
		t.Errorf("Explain does not say where the FILTERs ran:\n%s", plan)
	}
}

func TestOrderByMixedTypes(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?o WHERE { ex:site1 ?p ?o } ORDER BY ?o`)
	if len(res.Bindings()) != 4 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	// IRIs sort before literals
	if res.Bindings()[0][Variable("o")].Kind() != rdf.KindIRI {
		t.Errorf("first = %v", res.Bindings()[0][Variable("o")])
	}
}

func TestAggregates(t *testing.T) {
	e := fixture(t)
	cases := []struct {
		q     string
		check func(*Result) bool
		desc  string
	}{
		{
			`PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:ChemSite }`,
			func(r *Result) bool {
				return len(r.Bindings()) == 1 && r.Bindings()[0]["n"].Equal(rdf.NewInteger(2))
			},
			"COUNT(*)",
		},
		{
			`PREFIX ex: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:risk ?r }`,
			func(r *Result) bool { return r.Bindings()[0]["n"].Equal(rdf.NewInteger(2)) },
			"COUNT(?s)",
		},
		{
			`PREFIX ex: <http://e/> SELECT (SUM(?r) AS ?total) WHERE { ?s ex:risk ?r }`,
			func(r *Result) bool { return r.Bindings()[0]["total"].Equal(rdf.NewInteger(6)) },
			"SUM",
		},
		{
			`PREFIX ex: <http://e/> SELECT (AVG(?r) AS ?avg) WHERE { ?s ex:risk ?r }`,
			func(r *Result) bool { return r.Bindings()[0]["avg"].Equal(rdf.NewDouble(3)) },
			"AVG",
		},
		{
			`PREFIX ex: <http://e/> SELECT (MIN(?r) AS ?lo) (MAX(?r) AS ?hi) WHERE { ?s ex:risk ?r }`,
			func(r *Result) bool {
				b := r.Bindings()[0]
				lo, _ := b["lo"].(rdf.Literal).Int()
				hi, _ := b["hi"].(rdf.Literal).Int()
				return lo == 2 && hi == 4
			},
			"MIN/MAX",
		},
		{
			`PREFIX ex: <http://e/> SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s a ?t }`,
			func(r *Result) bool { return r.Bindings()[0]["n"].Equal(rdf.NewInteger(2)) },
			"COUNT DISTINCT",
		},
		{
			`PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Nothing }`,
			func(r *Result) bool {
				return len(r.Bindings()) == 1 && r.Bindings()[0]["n"].Equal(rdf.NewInteger(0))
			},
			"COUNT over empty",
		},
	}
	for _, c := range cases {
		res := sel(t, e, c.q)
		if !c.check(res) {
			t.Errorf("%s: bindings = %v", c.desc, res.Bindings())
		}
	}
}

func TestGroupBy(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n)`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("groups = %d: %v", len(res.Bindings()), res.Bindings())
	}
	if !res.Bindings()[0]["n"].Equal(rdf.NewInteger(3)) { // 3 features
		t.Errorf("largest group = %v", res.Bindings()[0])
	}
	if res.Vars[0] != "t" || res.Vars[1] != "n" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestAggregateParseErrors(t *testing.T) {
	bad := []string{
		`SELECT (COUNT(?x) ?n) WHERE { ?s ?p ?x }`,   // missing AS
		`SELECT (FROB(?x) AS ?n) WHERE { ?s ?p ?x }`, // unknown agg
		`SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?x }`,   // * outside COUNT
		`SELECT ?x WHERE { ?s ?p ?x } GROUP BY`,      // empty group by
	}
	for _, q := range bad {
		if _, err := ParseQuery(q, nil); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestBind(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s ?double WHERE { ?s ex:risk ?r . BIND(?r * 2 AS ?double) } ORDER BY ?double`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if !res.Bindings()[0]["double"].Equal(rdf.NewInteger(4)) ||
		!res.Bindings()[1]["double"].Equal(rdf.NewInteger(8)) {
		t.Errorf("bindings = %v", res.Bindings())
	}
	// BIND feeding a later FILTER
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:risk ?r . BIND(?r * 2 AS ?d) FILTER(?d > 5) }`)
	if len(res.Bindings()) != 1 {
		t.Errorf("filtered rows = %d", len(res.Bindings()))
	}
	// BIND of an erroring expression leaves the var unbound, row survives
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s ?bad WHERE { ?s ex:name ?n . BIND(?n * 2 AS ?bad) }`)
	if len(res.Bindings()) != 5 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	for _, b := range res.Bindings() {
		if _, ok := b["bad"]; ok {
			t.Error("errored BIND bound a value")
		}
	}
	// string helper through BIND
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?up WHERE { ex:site2 ex:name ?n . BIND(UCASE(?n) AS ?up) }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["up"].Equal(rdf.NewString("COLLIN CHEMICALS")) {
		t.Errorf("UCASE bind = %v", res.Bindings())
	}
}

func TestBindParseErrors(t *testing.T) {
	for _, q := range []string{
		`SELECT ?s WHERE { BIND(1 ?x) }`,
		`SELECT ?s WHERE { BIND(1 AS x) }`,
		`SELECT ?s WHERE { BIND 1 AS ?x }`,
	} {
		if _, err := ParseQuery(q, nil); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestValuesSingleVar(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s ?n WHERE { VALUES ?s { ex:site1 ex:site2 } ?s ex:name ?n } ORDER BY ?n`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings()))
	}
	if !res.Bindings()[0]["n"].Equal(rdf.NewString("Collin Chemicals")) {
		t.Errorf("first = %v", res.Bindings()[0])
	}
}

func TestValuesMultiVarAndUndef(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s ?r WHERE { VALUES (?s ?r) { (ex:site1 4) (ex:site2 UNDEF) } ?s ex:risk ?r } ORDER BY ?r`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d: %v", len(res.Bindings()), res.Bindings())
	}
	// row 1 fixes r=4 and joins; row 2 leaves r free and binds from data (2)
	if !res.Bindings()[0]["r"].Equal(rdf.NewInteger(2)) || !res.Bindings()[1]["r"].Equal(rdf.NewInteger(4)) {
		t.Errorf("bindings = %v", res.Bindings())
	}
	// a VALUES row that conflicts with data eliminates
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { VALUES (?s ?r) { (ex:site1 99) } ?s ex:risk ?r }`)
	if len(res.Bindings()) != 0 {
		t.Errorf("conflicting VALUES joined: %v", res.Bindings())
	}
}

func TestValuesAfterPatterns(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:ChemSite . VALUES ?s { ex:site1 } }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/site1")) {
		t.Errorf("post-pattern VALUES = %v", res.Bindings())
	}
}

func TestExistsNotExists(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:ChemSite . FILTER EXISTS { ?s ex:nearTo ?st } }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/site1")) {
		t.Errorf("EXISTS = %v", res.Bindings())
	}
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:ChemSite . FILTER NOT EXISTS { ?s ex:nearTo ?st } }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/site2")) {
		t.Errorf("NOT EXISTS = %v", res.Bindings())
	}
}

func TestValuesParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?s WHERE { VALUES { ex:x } }`,
		`SELECT ?s WHERE { VALUES (?a ?b) { (1) } }`,
		`SELECT ?s WHERE { VALUES ?s { ?t } }`,
		`SELECT ?s WHERE { FILTER NOT { ?s ?p ?o } }`,
	}
	for _, q := range bad {
		if _, err := ParseQuery(q, nil); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestDescribe(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/> DESCRIBE ex:site1`)
	if res.Kind != Describe {
		t.Fatalf("kind = %v", res.Kind)
	}
	if !res.Graph.Has(rdf.T(rdf.IRI("http://e/site1"), rdf.IRI("http://e/name"), rdf.NewString("North Texas Energy"))) {
		t.Errorf("description incomplete:\n%s", res.Graph)
	}
	// DESCRIBE with WHERE and a variable target
	res = sel(t, e, `PREFIX ex: <http://e/>
DESCRIBE ?s WHERE { ?s ex:risk ?r . FILTER(?r > 3) }`)
	if res.Graph.Len() == 0 {
		t.Fatal("empty description")
	}
	if len(res.Graph.Match(rdf.IRI("http://e/site2"), nil, nil)) != 0 {
		t.Error("unrelated resource described")
	}
	// unknown resource yields an empty graph, not an error
	res = sel(t, e, `DESCRIBE <http://e/nothing>`)
	if res.Graph.Len() != 0 {
		t.Errorf("ghost description: %s", res.Graph)
	}
}

func TestDescribeFollowsBlankNodes(t *testing.T) {
	g, err := turtle.ParseString(`
@prefix ex: <http://e/> .
ex:site ex:bounds [ ex:min "0,0" ; ex:max "9,9" ] .
`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store.FromGraph(g))
	res := sel(t, e, `PREFIX ex: <http://e/> DESCRIBE ex:site`)
	if res.Graph.Len() != 3 {
		t.Errorf("blank closure missing:\n%s", res.Graph)
	}
}

// TestSelectStarSeesGraphVariables: SELECT * projects the variables bound
// inside a GRAPH pattern, the graph name first.
func TestSelectStarSeesGraphVariables(t *testing.T) {
	ds := store.NewDataset()
	g, _ := ds.Graph(rdf.IRI("http://g/hydro"), true)
	tr := rdf.T(rdf.IRI("http://e/stream"), rdf.IRI("http://e/name"), rdf.NewString("Creek"))
	g.Add(tr)
	res := sel(t, NewDatasetEngine(ds), `SELECT * WHERE { GRAPH ?g { ?s ?p ?o } }`)
	if !slices.Equal(res.Vars, []Variable{"g", "s", "p", "o"}) {
		t.Fatalf("Vars = %v, want [g s p o]", res.Vars)
	}
	rows := res.Bindings()
	want := map[Variable]rdf.Term{"g": rdf.IRI("http://g/hydro"), "s": tr.Subject, "p": tr.Predicate, "o": tr.Object}
	if len(rows) != 1 || len(rows[0]) != len(want) {
		t.Fatalf("rows = %v, want one row of four bindings", rows)
	}
	for v, term := range want {
		if !rows[0][v].Equal(term) {
			t.Errorf("?%s = %v, want %v", v, rows[0][v], term)
		}
	}
}

func TestGraphPattern(t *testing.T) {
	ds := store.NewDataset()
	hydro, _ := ds.Graph(rdf.IRI("http://g/hydro"), true)
	chem, _ := ds.Graph(rdf.IRI("http://g/chem"), true)
	g1, _ := turtle.ParseString(`@prefix ex: <http://e/> . ex:stream ex:name "Creek" .`)
	g2, _ := turtle.ParseString(`@prefix ex: <http://e/> . ex:site ex:name "Plant" .`)
	hydro.AddGraph(g1)
	chem.AddGraph(g2)
	ds.Default().AddGraph(rdf.GraphOf(rdf.T(rdf.IRI("http://e/root"), rdf.IRI("http://e/name"), rdf.NewString("Root"))))

	e := NewDatasetEngine(ds)
	// named graph by IRI
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?n WHERE { GRAPH <http://g/hydro> { ?s ex:name ?n } }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["n"].Equal(rdf.NewString("Creek")) {
		t.Errorf("named graph = %v", res.Bindings())
	}
	// graph variable enumerates named graphs (not the default graph)
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?g ?n WHERE { GRAPH ?g { ?s ex:name ?n } } ORDER BY ?n`)
	if len(res.Bindings()) != 2 {
		t.Fatalf("rows = %d: %v", len(res.Bindings()), res.Bindings())
	}
	if !res.Bindings()[0]["g"].Equal(rdf.IRI("http://g/hydro")) {
		t.Errorf("graph binding = %v", res.Bindings()[0])
	}
	// default graph patterns still see only the default graph
	res = sel(t, e, `PREFIX ex: <http://e/> SELECT ?n WHERE { ?s ex:name ?n }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["n"].Equal(rdf.NewString("Root")) {
		t.Errorf("default graph = %v", res.Bindings())
	}
	// missing named graph: no solutions
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?n WHERE { GRAPH <http://g/none> { ?s ex:name ?n } }`)
	if len(res.Bindings()) != 0 {
		t.Errorf("ghost graph rows = %v", res.Bindings())
	}
	// cross-graph join: bind in one graph, test membership in another
	res = sel(t, e, `PREFIX ex: <http://e/>
ASK { GRAPH <http://g/hydro> { ?s ex:name "Creek" } GRAPH <http://g/chem> { ?p ex:name "Plant" } }`)
	if !res.Bool {
		t.Error("cross-graph conjunction failed")
	}
}

func TestGraphWithoutDatasetErrors(t *testing.T) {
	e := fixture(t)
	if _, err := e.Query(`SELECT ?s WHERE { GRAPH <http://g/x> { ?s ?p ?o } }`); err == nil {
		t.Error("GRAPH on store-backed engine succeeded")
	}
}

// TestASTStringForms exercises the Stringer implementations used in error
// messages and debugging output.
func TestASTStringForms(t *testing.T) {
	v := Variable("x")
	if v.String() != "?x" || v.Kind() != rdf.KindIRI || !v.Equal(Variable("x")) || v.Equal(Variable("y")) {
		t.Error("Variable methods wrong")
	}
	if Select.String() != "SELECT" || Ask.String() != "ASK" ||
		Construct.String() != "CONSTRUCT" || Describe.String() != "DESCRIBE" {
		t.Error("QueryKind strings wrong")
	}
	tp := TriplePattern{Subject: v, Predicate: Link{IRI: "http://e/p"}, Object: rdf.NewString("o")}
	if tp.String() != `?x <http://e/p> "o" .` {
		t.Errorf("TriplePattern = %q", tp.String())
	}
	paths := []struct {
		p    PathExpr
		want string
	}{
		{Link{IRI: "http://e/p"}, "<http://e/p>"},
		{VarPath{Var: "p"}, "?p"},
		{Inverse{Path: Link{IRI: "http://e/p"}}, "^<http://e/p>"},
		{Seq{Left: Link{IRI: "http://e/a"}, Right: Link{IRI: "http://e/b"}}, "<http://e/a>/<http://e/b>"},
		{Alt{Left: Link{IRI: "http://e/a"}, Right: Link{IRI: "http://e/b"}}, "<http://e/a>|<http://e/b>"},
		{Repeat{Path: Link{IRI: "http://e/p"}, Min: 0, Max: -1}, "(<http://e/p>)*"},
		{Repeat{Path: Link{IRI: "http://e/p"}, Min: 1, Max: -1}, "(<http://e/p>)+"},
		{Repeat{Path: Link{IRI: "http://e/p"}, Min: 0, Max: 1}, "(<http://e/p>)?"},
	}
	for _, c := range paths {
		if c.p.String() != c.want {
			t.Errorf("path String = %q, want %q", c.p.String(), c.want)
		}
	}
	exprs := []struct {
		e    Expression
		want string
	}{
		{ExprVar{Var: "x"}, "?x"},
		{ExprConst{Term: rdf.NewInteger(4)}, `"4"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{ExprUnary{Op: "!", Expr: ExprVar{Var: "x"}}, "!?x"},
		{ExprBinary{Op: "&&", Left: ExprVar{Var: "a"}, Right: ExprVar{Var: "b"}}, "(?a && ?b)"},
		{ExprCall{Name: "STR", Args: []Expression{ExprVar{Var: "x"}}}, "STR(?x)"},
		{ExprCall{IRI: "http://e/f", Args: nil}, "<http://e/f>()"},
		{ExprExists{}, "EXISTS {…}"},
		{ExprExists{Negate: true}, "NOT EXISTS {…}"},
	}
	for _, c := range exprs {
		if c.e.String() != c.want {
			t.Errorf("expr String = %q, want %q", c.e.String(), c.want)
		}
	}
	agg := Aggregate{Func: AggCount, Distinct: true, Arg: ExprVar{Var: "x"}, As: "n"}
	if agg.String() != "(COUNT(DISTINCT ?x) AS ?n)" {
		t.Errorf("agg String = %q", agg.String())
	}
	star := Aggregate{Func: AggCount, As: "n"}
	if star.String() != "(COUNT(*) AS ?n)" {
		t.Errorf("agg star String = %q", star.String())
	}
}

// More built-in function coverage.
func TestMoreBuiltins(t *testing.T) {
	e := fixture(t)
	cases := []struct {
		q    string
		rows int
	}{
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:length ?l . FILTER(CEIL(?l) = 13) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:length ?l . FILTER(FLOOR(?l) = 12) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:length ?l . FILTER(ROUND(?l) = 13) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(ABS(0 - ?r) = 4) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(LCASE(?n) = "gulf of mexico") }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(STRENDS(?n, "River")) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(SAMETERM(?r, 4)) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(COALESCE(?missing, ?r) = 4) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(IF(?r > 3, true, false)) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(DATATYPE(?r) = xsd:integer) }`, 2},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(ISBLANK(?s)) }`, 0},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(STR(?s) = "http://e/site1") }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(XSDINTEGER("3") = 3) }`, 5},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(XSDDOUBLE(STR(?r)) = 4.0) }`, 1},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(-?r < 0) }`, 2},
		{`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r - 2 = 2 && ?r / 2 = 2) }`, 1},
	}
	for _, c := range cases {
		res := sel(t, e, c.q)
		if len(res.Bindings()) != c.rows {
			t.Errorf("%s\nrows = %d, want %d", c.q, len(res.Bindings()), c.rows)
		}
	}
}

func TestInOperator(t *testing.T) {
	e := fixture(t)
	res := sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r IN (2, 9)) }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/site2")) {
		t.Errorf("IN = %v", res.Bindings())
	}
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r NOT IN (2, 9)) }`)
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/site1")) {
		t.Errorf("NOT IN = %v", res.Bindings())
	}
	res = sel(t, e, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ?t . FILTER(?s IN (ex:gulf, ex:site1)) }`)
	if len(res.Bindings()) != 2 {
		t.Errorf("IRI IN = %v", res.Bindings())
	}
	if _, err := ParseQuery(`SELECT ?s WHERE { ?s ?p ?o . FILTER(?o IN ()) }`, nil); err == nil {
		t.Error("empty IN accepted")
	}
}
