// Aggregation demonstrates the paper's motivating use case: two agencies
// store related intelligence in different formats and coordinate systems —
// a movement-tracking system publishing GML and an incident-records system
// publishing GRDF Turtle in a different CRS. GRDF's data model plus CRS
// normalization and OWL reasoning let one query span both ("a lot of
// intelligence data can be extracted or inferred by combining the data from
// the two applications, but the difference in formats gets in the way of
// such aggregation").
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"

	"repro/internal/geom"
	"repro/internal/gml"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Source A: vehicle sightings as a GML feature collection, coordinates in
// TX83-NCF feet.
const sightingsGML = `<?xml version="1.0"?>
<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://grdf.org/app#">
  <gml:featureMember>
    <app:Sighting gml:id="sighting1">
      <app:vehiclePlate>TX-4482</app:vehiclePlate>
      <app:observedAt>2008-04-07T09:30:00Z</app:observedAt>
      <app:location>
        <gml:Point srsName="http://grdf.org/crs/TX83-NCF">
          <gml:coordinates>2533950,7108310</gml:coordinates>
        </gml:Point>
      </app:location>
    </app:Sighting>
  </gml:featureMember>
  <gml:featureMember>
    <app:Sighting gml:id="sighting2">
      <app:vehiclePlate>TX-9031</app:vehiclePlate>
      <app:observedAt>2008-04-07T11:10:00Z</app:observedAt>
      <app:location>
        <gml:Point srsName="http://grdf.org/crs/TX83-NCF">
          <gml:coordinates>2554000,7131000</gml:coordinates>
        </gml:Point>
      </app:location>
    </app:Sighting>
  </gml:featureMember>
</gml:FeatureCollection>`

// Source B: incident records in GRDF Turtle, coordinates in METERS
// (TX83-NCF-m) — same world, different format AND different CRS.
const incidentsTurtle = `
@prefix app: <http://grdf.org/app#> .
app:incident7 a app:IncidentRecord ;
    app:caseNumber "2008-0417" ;
    app:summary "warehouse break-in" ;
    grdf:hasGeometry app:incident7_geom .
app:incident7_geom a grdf:Point ;
    grdf:coordinates "772359.0,2166604.0" ;
    grdf:hasSRSName "http://grdf.org/crs/TX83-NCF-m" .
app:incident9 a app:IncidentRecord ;
    app:caseNumber "2008-0522" ;
    app:summary "fuel theft" ;
    grdf:hasGeometry app:incident9_geom .
app:incident9_geom a grdf:Point ;
    grdf:coordinates "762000.0,2160000.0" ;
    grdf:hasSRSName "http://grdf.org/crs/TX83-NCF-m" .
`

func main() {
	// Ingest source A (GML → GRDF).
	colA, err := gml.ParseString(sightingsGML)
	if err != nil {
		log.Fatal(err)
	}
	storeA := store.New()
	if _, err := gml.ToGRDF(storeA, colA, rdf.AppNS); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source A (GML, feet):      %d triples\n", storeA.Len())

	// Ingest source B (Turtle).
	graphB, err := turtle.ParseString(incidentsTurtle)
	if err != nil {
		log.Fatal(err)
	}
	storeB := store.FromGraph(graphB)
	fmt.Printf("source B (Turtle, meters): %d triples\n", storeB.Len())

	// Aggregate: merge, normalize every geometry to meters, materialize
	// inferences so both domain classes become grdf:Feature.
	res, err := grdf.Aggregate([]grdf.Source{
		{Name: "sightings", Store: storeA},
		{Name: "incidents", Store: storeB},
	}, grdf.AggregateOptions{
		TargetCRS: geom.TX83NCM,
		Registry:  geom.NewRegistry(),
		Reason:    true,
		Ontology:  grdf.Ontology(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregated view:           %d triples (%d geometries re-projected, %d inferred)\n\n",
		res.Merged.Len(), res.Rewritten, res.Inferred)

	// A cross-domain query that neither source could answer alone: incidents
	// within 500 m of any vehicle sighting, regardless of origin format.
	eng := grdf.NewEngine(res.Merged)
	out, err := eng.Query(`
SELECT ?case ?plate WHERE {
  ?incident a app:IncidentRecord .
  ?incident app:caseNumber ?case .
  ?sighting a app:Sighting .
  ?sighting app:vehiclePlate ?plate .
  FILTER(grdf:distance(?incident, ?sighting) < 500)
}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("incidents within 500 m of a sighting (cross-source spatial join):")
	for _, b := range out.Bindings() {
		fmt.Printf("  case %s near vehicle %s\n",
			b["case"].(rdf.Literal).Value, b["plate"].(rdf.Literal).Value)
	}

	// Inference dividend: everything is now a grdf:Feature, so generic
	// GRDF-level tooling applies to both domains at once.
	features, err := eng.Query(`SELECT ?f WHERE { ?f a grdf:Feature }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngrdf:Feature instances after reasoning: %d (sightings + incidents)\n",
		features.Len())

	// Provenance: keep each source in its own named graph and ask which
	// graph a fact came from with a GRAPH pattern.
	ds := store.NewDataset()
	ds.SetGraph(rdf.IRI("http://grdf.org/graph/sightings"), storeA)
	ds.SetGraph(rdf.IRI("http://grdf.org/graph/incidents"), storeB)
	dsEng := sparql.NewDatasetEngine(ds)
	prov, err := dsEng.Query(`
SELECT ?g ?plateOrCase WHERE {
  { GRAPH ?g { ?s app:vehiclePlate ?plateOrCase } }
  UNION
  { GRAPH ?g { ?s app:caseNumber ?plateOrCase } }
} ORDER BY ?g ?plateOrCase`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-source provenance (named graphs):")
	for _, b := range prov.Bindings() {
		fmt.Printf("  %-40s %s\n", b["g"].(rdf.IRI).LocalName(), b["plateOrCase"].(rdf.Literal).Value)
	}
}
