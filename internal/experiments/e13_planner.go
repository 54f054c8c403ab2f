package experiments

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/sparql"
)

// e13Query is the Section 7.1 aggregation shape — walk from chemical sites
// through their inventory to the stored chemicals — with the selective
// pattern (a fixed chemical code) written last. The legacy static order
// scores the rdf:type pattern and the code pattern equally and keeps them in
// textual order, so it joins every site against every matching record before
// any chain pattern connects the two: a Cartesian product. The selectivity
// planner starts at the code pattern and follows the join chain.
const e13Query = `SELECT ?site ?name ?chem WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
  ?rec app:hasChemCode "017CL" .
}`

// E13Planner measures the selectivity-driven BGP planner against the legacy
// static pattern order on identical engines over the same store, and checks
// that both orders agree on the answers.
func E13Planner(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{50, 200}
	}
	t := &Table{
		ID:    "E13",
		Title: "Selectivity planner vs static pattern order (Sec 7.1 query)",
		Columns: []string{"sites", "triples", "solutions", "static order",
			"planned", "speedup"},
	}
	for _, n := range sizes {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 53, Sites: n})
		st := sc.Merged

		reps := 3
		if n <= 60 {
			reps = 10
		}
		static := sparql.NewEngine(st).SetPlanning(false)
		planned := sparql.NewEngine(st)

		staticN, staticTime, err := e13Time(static, reps)
		if err != nil {
			t.AddNote("static evaluation error: %v", err)
			continue
		}
		plannedN, plannedTime, err := e13Time(planned, reps)
		if err != nil {
			t.AddNote("planned evaluation error: %v", err)
			continue
		}
		if staticN != plannedN {
			t.AddNote("MISMATCH at %d sites: static %d solutions, planned %d", n, staticN, plannedN)
		}
		speedup := float64(staticTime) / float64(plannedTime)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", st.Len()),
			fmt.Sprintf("%d", plannedN),
			staticTime.Round(time.Microsecond).String(),
			plannedTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speedup))
	}
	t.AddNote("expected shape: identical solution counts; speedup grows with site count as the static order's site x record Cartesian product widens")
	return t
}

// e13Time evaluates the E13 query reps times on eng, returning the solution
// count and the per-run wall time.
func e13Time(eng *sparql.Engine, reps int) (int, time.Duration, error) {
	n := 0
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, err := eng.Query(e13Query)
		if err != nil {
			return 0, 0, err
		}
		n = res.Len()
	}
	return n, time.Since(start) / time.Duration(reps), nil
}
