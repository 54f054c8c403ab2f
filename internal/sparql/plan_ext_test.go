// Property-style tests for the selectivity planner. These live in an
// external test package because they exercise planned vs unplanned
// evaluation over datagen scenarios, and datagen imports grdf which imports
// sparql — an internal test file would close that cycle.
package sparql_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparql"
)

// multiset renders a result as a sorted list of canonical row strings, so
// two results compare equal iff they contain the same solutions with the
// same multiplicities, regardless of order.
func multiset(res *sparql.Result) []string {
	rows := make([]string, 0, len(res.Bindings()))
	for _, b := range res.Bindings() {
		var sb strings.Builder
		for _, v := range res.Vars {
			sb.WriteString(string(v))
			sb.WriteByte('=')
			if t, ok := b[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\x1f')
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return rows
}

// TestPlannedMatchesUnplanned checks that reordering basic graph patterns by
// selectivity never changes the answer: for a spread of generated datasets
// and query shapes, the planned engine and the static-order engine must
// return identical solution multisets.
func TestPlannedMatchesUnplanned(t *testing.T) {
	queries := []struct {
		name string
		src  string
	}{
		{"chain-with-code", `SELECT ?site ?name ?chem WHERE {
			?site a app:ChemSite .
			?site app:hasSiteName ?name .
			?site app:hasChemicalInfo ?info .
			?info app:chemical ?rec .
			?rec app:hasChemName ?chem .
			?rec app:hasChemCode "017CL" .
		}`},
		{"optional-filter", `SELECT ?site ?name ?temp WHERE {
			?site a app:ChemSite .
			?site app:hasSiteName ?name .
			OPTIONAL { ?site app:nearWeatherStation ?st . ?st app:hasTemperature ?temp }
			FILTER(STRLEN(?name) > 0)
		}`},
		{"path-plus", `SELECT ?a ?b WHERE {
			?a a app:HydroStream .
			?a app:flowsInto+ ?b .
		}`},
		{"path-star-join", `SELECT ?a ?end WHERE {
			?a app:flowsInto ?mid .
			?mid app:flowsInto* ?end .
		}`},
		{"union", `SELECT ?x WHERE {
			{ ?x a app:ChemSite } UNION { ?x a app:HydroStream }
		}`},
		{"var-predicate", `SELECT ?p WHERE {
			?s a app:ChemSite .
			?s ?p ?o .
		}`},
	}
	for _, seed := range []int64{3, 17} {
		for _, sites := range []int{8, 25} {
			sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: seed, Sites: sites})
			planned := sparql.NewEngine(sc.Merged)
			static := sparql.NewEngine(sc.Merged).SetPlanning(false)
			for _, q := range queries {
				t.Run(fmt.Sprintf("%s/seed%d/sites%d", q.name, seed, sites), func(t *testing.T) {
					pres, err := planned.Query(q.src)
					if err != nil {
						t.Fatalf("planned: %v", err)
					}
					sres, err := static.Query(q.src)
					if err != nil {
						t.Fatalf("static: %v", err)
					}
					pm, sm := multiset(pres), multiset(sres)
					if len(pm) != len(sm) {
						t.Fatalf("solution counts differ: planned %d, static %d", len(pm), len(sm))
					}
					for i := range pm {
						if pm[i] != sm[i] {
							t.Fatalf("row %d differs:\nplanned: %q\nstatic:  %q", i, pm[i], sm[i])
						}
					}
				})
			}
		}
	}
}

// TestExplainOverScenario smoke-tests EXPLAIN output against generated data:
// the selective chemical-code pattern must be scheduled ahead of the broad
// rdf:type pattern.
func TestExplainOverScenario(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 53, Sites: 40})
	out, err := sparql.NewEngine(sc.Merged).Explain(`SELECT ?site WHERE {
		?site a app:ChemSite .
		?site app:hasChemicalInfo ?info .
		?info app:chemical ?rec .
		?rec app:hasChemCode "017CL" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BGP plan (reordered):") {
		t.Fatalf("expected a reordered plan, got:\n%s", out)
	}
	codeLine := strings.Index(out, "hasChemCode")
	typeLine := strings.Index(out, "ChemSite")
	if codeLine == -1 || typeLine == -1 || codeLine > typeLine {
		t.Fatalf("code pattern should be planned before the type pattern:\n%s", out)
	}
}
