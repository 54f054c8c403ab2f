// Contamination walks through the paper's Section 7.1 scenario end to end:
//
//  1. Two data stores — hydrology topology (NCTCOG-style) and chemical
//     facilities (E-Plan-style) — are generated and merged into the
//     middleware's layered view.
//
//  2. The incident site is located, the affected stream identified, and the
//     chemical sites within the incident radius found with a spatial join.
//
//  3. Three responder roles query the same middleware and get three
//     different, policy-filtered views:
//     - 'main repair'        — site extents only (List 8's policy),
//     - 'hazmat personnel'   — locations plus an aggregate chemical list,
//     - 'emergency response' — full access.
//
//     go run ./examples/contamination
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

func main() {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 12})
	fmt.Printf("middleware layered view: %d triples (%d hydrology + %d chemical)\n\n",
		sc.Merged.Len(), sc.Hydrology.Store.Len(), sc.Chemical.Store.Len())

	// --- incident analysis (unrestricted, the middleware's own view) --------
	incident := sc.Hydrology.Streams[1] // a creek
	fmt.Printf("incident: contamination reported on %s (%s)\n", incident.Name, incident.IRI)

	// Which sites discharge within 1 mile (5280 ft) of the affected creek?
	pairs, err := grdf.SpatialJoin(sc.Merged, datagen.HydroStream, datagen.ChemSite, 5280)
	if err != nil {
		log.Fatal(err)
	}
	affected := map[rdf.Term]float64{}
	for _, p := range pairs {
		if p.A.Equal(incident.IRI) {
			affected[p.B] = p.Distance
		}
	}
	fmt.Printf("sites within 1 mile of the creek: %d\n", len(affected))
	var ordered []rdf.Term
	for s := range affected {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return affected[ordered[i]] < affected[ordered[j]] })
	for _, s := range ordered {
		name, _ := sc.Merged.FirstObject(s, datagen.HasSiteName)
		fmt.Printf("  %-28s %6.0f ft\n", lit(name), affected[s])
	}

	// --- the G-SACS middleware ----------------------------------------------
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	engine := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})

	show := func(roleName string, role rdf.IRI) {
		fmt.Printf("\n=== role: %s ===\n", roleName)
		view := engine.View(role, seconto.ActionView)
		fmt.Printf("filtered view: %d of %d triples\n", view.Len(), sc.Merged.Len())

		// What the role sees of the first affected site.
		if len(ordered) == 0 {
			return
		}
		site := ordered[0]
		acc := engine.Decide(role, seconto.ActionView, site)
		fmt.Printf("nearest site %s:\n", site.(rdf.IRI).LocalName())
		if !acc.Allowed {
			fmt.Println("  access denied")
			return
		}
		if env, ok := grdf.EnvelopeOfFeature(view, site); ok {
			c := env.Center()
			fmt.Printf("  extent center: %.0f,%.0f (%.0f x %.0f ft)\n",
				c.X, c.Y, env.Width(), env.Height())
		} else {
			fmt.Println("  extent: hidden")
		}
		if name, ok := view.FirstObject(site, datagen.HasSiteName); ok {
			fmt.Printf("  site name: %s\n", lit(name))
		} else {
			fmt.Println("  site name: hidden")
		}
		// Aggregate chemical list via a SPARQL query over the filtered view.
		res, err := engine.Query(role, seconto.ActionView, `
SELECT DISTINCT ?chem WHERE {
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
} ORDER BY ?chem`)
		if err != nil {
			log.Fatal(err)
		}
		if res.Len() == 0 {
			fmt.Println("  chemicals: hidden")
		} else {
			fmt.Printf("  aggregate chemical list (%d):", res.Len())
			for _, b := range res.Bindings() {
				fmt.Printf(" %s;", lit(b["chem"]))
			}
			fmt.Println()
		}
		// Codes/quantities/contacts stay hidden except for emergency response.
		codes, _ := engine.Query(role, seconto.ActionView,
			`SELECT ?c WHERE { ?rec app:hasChemCode ?c }`)
		contacts, _ := engine.Query(role, seconto.ActionView,
			`SELECT ?p WHERE { ?s app:hasContactPhone ?p }`)
		fmt.Printf("  chemical codes visible: %d, contacts visible: %d\n",
			codes.Len(), contacts.Len())
	}

	show("main repair", datagen.RoleMainRepair)
	show("hazmat personnel", datagen.RoleHazmat)
	show("emergency response", datagen.RoleEmergency)

	// Spatially scoped policy: a field team cleared only for the incident
	// radius.
	fmt.Println("\n=== spatially scoped policy (incident radius only) ===")
	incidentEnv := geom.Buffer(mustGeometry(sc, incident.IRI), 5280)
	fieldRole := rdf.IRI(seconto.NS + "FieldTeam")
	scoped := &seconto.Set{Rules: append(sc.Policies.Rules, seconto.Rule{
		ID: seconto.NS + "FieldScoped", Subject: fieldRole,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: true,
		Properties:   []rdf.IRI{rdf.IRI(grdf.NS + "boundedBy"), datagen.HasSiteName},
		SpatialScope: &incidentEnv,
	})}
	scopedEngine := gsacs.New(scoped, sc.Merged, gsacs.Options{Reasoner: reasoner})
	visible := 0
	for _, s := range sc.Chemical.Sites {
		if scopedEngine.Decide(fieldRole, seconto.ActionView, s.IRI).Allowed {
			visible++
		}
	}
	fmt.Printf("field team sees %d of %d sites (those inside the incident envelope)\n",
		visible, len(sc.Chemical.Sites))
}

func lit(t rdf.Term) string {
	if l, ok := t.(rdf.Literal); ok {
		return l.Value
	}
	if t == nil {
		return "?"
	}
	return t.String()
}

func mustGeometry(sc *datagen.Scenario, iri rdf.IRI) geom.Geometry {
	g, _, err := grdf.GeometryOf(sc.Merged, iri)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
