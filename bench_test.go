// Package repro's root benchmark suite: one testing.B benchmark per
// experiment in EXPERIMENTS.md (E1–E11), plus ablation benches for the
// design choices DESIGN.md calls out (index fan-out, incremental vs batch
// reasoning, reasoner-backed vs syntactic policy decisions, cache on/off).
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/align"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/geoxacml"
	"repro/internal/gml"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
)

// --- E1: ontology construction (Fig. 1) -------------------------------------

func BenchmarkE1OntologyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := grdf.Ontology()
		if g.Len() == 0 {
			b.Fatal("empty ontology")
		}
	}
}

func BenchmarkE1OntologyMaterialize(b *testing.B) {
	st := store.FromGraph(grdf.Ontology())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats := owl.Materialize(st); stats.Inferred == 0 {
			b.Fatal("no inferences")
		}
	}
}

// --- E2: listings round-trip (Lists 1–5, 8) ----------------------------------

func BenchmarkE2ListingsRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E2Listings()
		if len(t.Rows) != 6 {
			b.Fatal("listing count changed")
		}
	}
}

// --- E3: topology realization (Fig. 2) ----------------------------------------

func BenchmarkE3TopologyRealize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E3Topology()
		if len(t.Rows) == 0 {
			b.Fatal("no checks")
		}
	}
}

// --- E4: GML conversion (Lists 6–7) -------------------------------------------

func BenchmarkE4ConvertGML(b *testing.B) {
	hydro := datagen.Hydrology(datagen.HydrologyConfig{Seed: 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := gml.FromGRDF(hydro.Store, datagen.HydroStream)
		if err != nil {
			b.Fatal(err)
		}
		doc := gml.Format(col)
		back, err := gml.ParseString(doc)
		if err != nil {
			b.Fatal(err)
		}
		st := store.New()
		if _, err := gml.ToGRDF(st, back, rdf.AppNS); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: scenario role views (Sec 7.1) -----------------------------------------

func BenchmarkE5ScenarioViews(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 17, Sites: 20})
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	for _, role := range []struct {
		name string
		iri  rdf.IRI
	}{
		{"MainRepair", datagen.RoleMainRepair},
		{"Hazmat", datagen.RoleHazmat},
		{"Emergency", datagen.RoleEmergency},
	} {
		b.Run(role.name, func(b *testing.B) {
			e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := e.View(role.iri, seconto.ActionView)
				if v.Len() == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// --- E6: fine-grained vs object-level decision cost ---------------------------

func BenchmarkE6FineVsCoarse(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 23, Sites: 20})
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
	xacml := &geoxacml.PolicySet{Rules: []geoxacml.Rule{
		{ID: "sites", Subject: "mainrep", Action: "view",
			Resource: datagen.ChemSite, Effect: geoxacml.Permit},
	}}
	sites := sc.Chemical.Sites

	b.Run("GRDF-decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := e.Decide(datagen.RoleMainRepair, seconto.ActionView, sites[i%len(sites)].IRI)
			if !acc.Allowed {
				b.Fatal("denied")
			}
		}
	})
	b.Run("GeoXACML-decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if xacml.Evaluate("mainrep", "view", sites[i%len(sites)].IRI, sc.Merged) != geoxacml.Permit {
				b.Fatal("not permitted")
			}
		}
	})
	b.Run("GRDF-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.View(datagen.RoleMainRepair, seconto.ActionView)
		}
	})
	b.Run("GeoXACML-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xacml.View("mainrep", "view", sc.Merged)
		}
	})
}

// --- E7: enforcement under merge ----------------------------------------------

func BenchmarkE7MergeEnforcement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7MergeEnforcement()
		if len(t.Rows) != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

// --- E8: query cache -----------------------------------------------------------

func BenchmarkE8QueryCache(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 31, Sites: 30})
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	roles := []rdf.IRI{datagen.RoleMainRepair, datagen.RoleHazmat, datagen.RoleEmergency}

	e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
	// cache-off drops the cached views before every request: each pays the
	// cold build.
	for _, cached := range []bool{false, true} {
		name := "cache-off"
		if cached {
			name = "cache-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !cached {
					e.Cache().Clear()
				}
				e.View(roles[i%len(roles)], seconto.ActionView)
			}
		})
	}
}

// --- E9: reasoning scale --------------------------------------------------------

func BenchmarkE9Reasoning(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("sites-%d", n), func(b *testing.B) {
			sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 37, Sites: n})
			data := sc.Merged.Snapshot()
			data.AddGraph(grdf.Ontology())
			triples := data.Triples()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := owl.NewReasonerOver(store.New())
				r.AddAll(triples)
				if r.Stats().Inferred == 0 {
					b.Fatal("no inferences")
				}
			}
			b.ReportMetric(float64(len(triples)), "triples")
		})
	}
}

// --- E10: store and SPARQL scale -------------------------------------------------

func BenchmarkE10StoreLoad(b *testing.B) {
	for _, n := range []int{10, 100, 400} {
		b.Run(fmt.Sprintf("sites-%d", n), func(b *testing.B) {
			sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 41, Sites: n})
			triples := sc.Merged.Triples()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := store.New()
				st.AddAll(triples)
			}
			b.ReportMetric(float64(len(triples)), "triples")
		})
	}
}

func BenchmarkE10SparqlJoin(b *testing.B) {
	for _, n := range []int{10, 100, 400} {
		b.Run(fmt.Sprintf("sites-%d", n), func(b *testing.B) {
			sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 41, Sites: n})
			e := sparql.NewEngine(sc.Merged)
			q := `SELECT ?s ?n WHERE { ?s a app:ChemSite . ?s app:hasSiteName ?n }`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Query(q)
				if err != nil || len(res.Bindings()) != n {
					b.Fatalf("rows=%d err=%v", len(res.Bindings()), err)
				}
			}
		})
	}
}

func BenchmarkE10SpatialFilter(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 41, Sites: 50})
	e := grdf.NewEngine(sc.Merged)
	q := fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, <%s>) < 5280) }`,
		string(sc.Hydrology.Streams[0].IRI))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: alignment ---------------------------------------------------------------

func BenchmarkE11Alignment(b *testing.B) {
	left := grdf.Ontology()
	for i := 0; i < b.N; i++ {
		a := align.Align(left, left, align.Options{})
		if len(a.Pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// --- Ablations ---------------------------------------------------------------------

// BenchmarkAblationIndexes compares the store's indexed pattern matching
// against a full-scan baseline — the 1-index-vs-3 design choice.
func BenchmarkAblationIndexes(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 43, Sites: 200})
	st := sc.Merged
	triples := st.Triples()
	pred := datagen.HasSiteName

	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if st.Count(nil, pred, nil) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, t := range triples {
				if t.Predicate.Equal(pred) {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkAblationIncrementalReasoning compares streaming single-triple
// additions into a live reasoner against re-materializing from scratch after
// each change.
func BenchmarkAblationIncrementalReasoning(b *testing.B) {
	base := datagen.NewScenario(datagen.ScenarioConfig{Seed: 47, Sites: 20}).Merged.Snapshot()
	base.AddGraph(grdf.Ontology())
	newTriple := func(i int) rdf.Triple {
		return rdf.T(
			rdf.IRI(fmt.Sprintf("%sdelta%d", rdf.AppNS, i)),
			rdf.RDFType, datagen.ChemSite)
	}

	b.Run("incremental", func(b *testing.B) {
		r := owl.NewReasonerOver(store.New())
		r.AddAll(base.Triples())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Add(newTriple(i))
		}
	})
	b.Run("rematerialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := base.Snapshot()
			st.Add(newTriple(i))
			owl.Materialize(st)
		}
	})
}

// BenchmarkAblationDecisionReasoner compares policy decisions with the OWL
// reasoner plugged in (subclass-aware resource matching) against the
// syntactic fallback.
func BenchmarkAblationDecisionReasoner(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 53, Sites: 20})
	site := sc.Chemical.Sites[0].IRI

	b.Run("with-reasoner", func(b *testing.B) {
		reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
		e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !e.Decide(datagen.RoleEmergency, seconto.ActionView, site).Allowed {
				b.Fatal("denied")
			}
		}
	})
	b.Run("syntactic", func(b *testing.B) {
		e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Decide(datagen.RoleEmergency, seconto.ActionView, site)
		}
	})
}

// --- E12: policy merge and conflict resolution ---------------------------------

func BenchmarkE12PolicyConflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E12PolicyConflicts()
		if len(t.Rows) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}
