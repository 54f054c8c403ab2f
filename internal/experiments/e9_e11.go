package experiments

import (
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
)

// E9Reasoning reproduces the "deduce new data" claim: materialization yields
// strictly more query answers, at measured cost, across dataset sizes.
func E9Reasoning(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{10, 50, 200}
	}
	t := &Table{
		ID:    "E9",
		Title: "Logical inference over GRDF data (conclusion claim)",
		Columns: []string{"sites", "asserted", "inferred", "time",
			"answers before", "answers after"},
	}
	for _, n := range sizes {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 37, Sites: n})
		data := sc.Merged.Snapshot()
		data.AddGraph(grdf.Ontology())
		// A cross-domain query: all grdf:Features with any geometry. Before
		// reasoning nothing is typed grdf:Feature directly.
		query := `SELECT ?f WHERE { ?f a grdf:Feature }`
		before := answerCount(data, query)

		start := time.Now()
		materialized, stats := owl.Materialize(data)
		elapsed := time.Since(start)
		after := answerCount(materialized, query)

		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", stats.Asserted),
			fmt.Sprintf("%d", stats.Inferred),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", before),
			fmt.Sprintf("%d", after))
	}
	t.AddNote("expected shape: answers-before is 0 (domain types only), answers-after equals the full feature count; inferred grows linearly with data")
	return t
}

func answerCount(st *store.Store, query string) int {
	e := sparql.NewEngine(st)
	res, err := e.Query(query)
	if err != nil {
		return -1
	}
	return res.Len()
}

// E10StoreSparql measures the substrate: load and query throughput across
// dataset sizes.
func E10StoreSparql(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{10, 100, 400}
	}
	t := &Table{
		ID:    "E10",
		Title: "Substrate scaling: store load and SPARQL",
		Columns: []string{"sites", "triples", "load", "triples/s",
			"pattern match", "sparql join"},
	}
	for _, n := range sizes {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 41, Sites: n})
		triples := sc.Merged.Triples()

		start := time.Now()
		st := store.New()
		st.AddAll(triples)
		load := time.Since(start)

		start = time.Now()
		const matchReps = 100
		for i := 0; i < matchReps; i++ {
			st.Count(nil, datagen.HasSiteName, nil)
		}
		match := time.Since(start) / matchReps

		e := sparql.NewEngine(st)
		q := `SELECT ?s ?n WHERE { ?s a app:ChemSite . ?s app:hasSiteName ?n }`
		start = time.Now()
		const queryReps = 20
		for i := 0; i < queryReps; i++ {
			if _, err := e.Query(q); err != nil {
				t.AddNote("query error: %v", err)
				break
			}
		}
		join := time.Since(start) / queryReps

		rate := float64(len(triples)) / load.Seconds()
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(triples)),
			load.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", rate),
			match.Round(time.Microsecond).String(),
			join.Round(time.Microsecond).String())
	}
	t.AddNote("expected shape: load rate roughly constant; indexed pattern match stays flat as data grows")
	return t
}

// E11Alignment reproduces Section 2's alignment discussion: precision and
// recall on synthetic concept-renaming benchmarks over the GRDF ontology.
func E11Alignment() *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Ontology alignment (Sec 2 / Kokla & Kavouras)",
		Columns: []string{"benchmark", "precision", "recall", "F1", "pairs"},
	}
	run := func(name string, renames map[string]string, syn map[string]string) {
		variant, gold := renameOntology(renames)
		a := align.Align(grdf.Ontology(), variant, align.Options{Synonyms: syn})
		m := align.Evaluate(a, gold)
		t.AddRow(name,
			fmt.Sprintf("%.2f", m.Precision),
			fmt.Sprintf("%.2f", m.Recall),
			fmt.Sprintf("%.2f", m.F1),
			fmt.Sprintf("%d/%d", m.Correct, m.Expected))
	}
	run("identical names", nil, nil)
	run("case/sep variants", map[string]string{
		"Feature": "feature", "LineString": "line_string",
		"MultiSurface": "multi-surface", "TopoSolid": "topo_solid",
	}, nil)
	renames := map[string]string{
		"Feature": "GeoFeature", "Curve": "Arc", "Surface": "Area",
		"Point": "Location", "Envelope": "BoundingBox", "Observation": "Measurement",
	}
	run("renamed, no synonyms", renames, nil)
	run("renamed, with synonyms", renames, map[string]string{
		"arc": "curve", "area": "surface", "location": "point",
		"measurement": "observation", "bounding": "envelope", "box": "", "geo": "",
	})
	t.AddNote("expected shape: near-perfect on identical/case variants; synonyms recover most renamed concepts")
	return t
}

// renameOntology derives a domain ontology from GRDF by renaming class local
// names, returning the variant and the gold alignment.
func renameOntology(renames map[string]string) (*rdf.Graph, map[rdf.IRI]rdf.IRI) {
	const domainNS = "http://domain.example/onto#"
	src := grdf.Ontology()
	out := rdf.NewGraph()
	gold := map[rdf.IRI]rdf.IRI{}
	rename := func(iri rdf.IRI) rdf.IRI {
		local := iri.LocalName()
		if alt, ok := renames[local]; ok {
			local = alt
		}
		return rdf.IRI(domainNS + local)
	}
	for _, tr := range src.Match(nil, rdf.RDFType, rdf.OWLClass) {
		iri := tr.Subject.(rdf.IRI)
		ren := rename(iri)
		out.Add(rdf.T(ren, rdf.RDFType, rdf.OWLClass))
		gold[iri] = ren
		for _, s := range src.Objects(iri, rdf.RDFSSubClassOf) {
			if sup, ok := s.(rdf.IRI); ok {
				out.Add(rdf.T(ren, rdf.RDFSSubClassOf, rename(sup)))
			}
		}
	}
	return out, gold
}

// All runs every experiment with default parameters, in order.
func All() []*Table {
	return []*Table{
		E1Ontology(),
		E2Listings(),
		E3Topology(),
		E4GMLRoundTrip(),
		E5ScenarioViews(),
		E6FineVsCoarse(nil),
		E7MergeEnforcement(),
		E8QueryCache(0),
		E9Reasoning(nil),
		E10StoreSparql(nil),
		E11Alignment(),
		E12PolicyConflicts(),
		E13Planner(nil),
	}
}

// E12PolicyConflicts reproduces Section 7's multi-server note: "each node
// may enforce its own set of policies … if the combination of policies from
// participating systems is inconsistent, additional rules may be needed to
// resolve conflicts." Two servers' policy sets are merged, conflicts
// detected, and both resolution strategies applied; the table shows the
// effective outcome for the contested role before and after.
func E12PolicyConflicts() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Multi-server policy merge and conflict resolution (Sec 7)",
		Columns: []string{"stage", "conflicts", "role sees site", "detail"},
	}
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 61, Sites: 4})
	role := rdf.IRI("http://grdf.org/ontology/seconto#FieldAuditor")

	// Server A permits auditors to view chemical sites (extent+name);
	// server B denies auditors chemical sites outright.
	serverA := &seconto.Set{Rules: []seconto.Rule{{
		ID: "http://a.example/policy1", Subject: role,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: true,
		Properties: []rdf.IRI{rdf.IRI(grdf.NS + "boundedBy"), datagen.HasSiteName},
	}}}
	serverB := &seconto.Set{Rules: []seconto.Rule{{
		ID: "http://b.example/policy9", Subject: role,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: false,
	}}}

	site := sc.Chemical.Sites[0].IRI
	report := func(stage string, set *seconto.Set) {
		conflicts := set.DetectConflicts()
		e := gsacs.New(set, sc.Merged, gsacs.Options{})
		acc := e.Decide(role, seconto.ActionView, site)
		visible := "denied"
		if acc.Allowed {
			if acc.Full {
				visible = "full"
			} else {
				visible = fmt.Sprintf("%d properties", len(acc.Properties))
			}
		}
		detail := ""
		if len(conflicts) > 0 {
			detail = conflicts[0].String()
		}
		t.AddRow(stage, fmt.Sprintf("%d", len(conflicts)), visible, detail)
	}

	merged := seconto.Merge(serverA, serverB)
	report("merged (ambiguous)", merged)
	report("resolved: deny wins", merged.Resolve(seconto.DenyWins))
	report("resolved: permit wins", merged.Resolve(seconto.PermitWins))
	t.AddNote("expected shape: the raw merge is ambiguous (engine's deny-overrides default hides the site); each strategy yields a deterministic, conflict-free outcome")
	return t
}
