// Quickstart: create GRDF features, attach geometry, serialize to Turtle and
// RDF/XML, and query them with SPARQL including a spatial filter.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/rdfxml"
	"repro/internal/store"
	"repro/internal/turtle"
)

func main() {
	st := store.New()

	// A city park: a polygon feature.
	ring, err := geom.NewLinearRing([]geom.Coord{
		{X: 0, Y: 0}, {X: 400, Y: 0}, {X: 400, Y: 300}, {X: 0, Y: 300}, {X: 0, Y: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	park := rdf.IRI(rdf.AppNS + "centralPark")
	st.AddAll(append(grdf.NewFeature(nil, park, rdf.IRI(rdf.AppNS+"Park")),
		rdf.T(park, rdf.RDFSLabel, rdf.NewString("Central Park"))))
	if _, err := grdf.SetGeometry(st, park, geom.NewPolygon(ring), geom.TX83NCM); err != nil {
		log.Fatal(err)
	}

	// A fountain inside the park and a depot outside it: point features.
	fountain := rdf.IRI(rdf.AppNS + "fountain")
	st.AddAll(append(grdf.NewFeature(nil, fountain, rdf.IRI(rdf.AppNS+"Landmark")),
		rdf.T(fountain, rdf.RDFSLabel, rdf.NewString("Memorial Fountain"))))
	if _, err := grdf.SetGeometry(st, fountain, geom.NewPoint(200, 150), geom.TX83NCM); err != nil {
		log.Fatal(err)
	}
	depot := rdf.IRI(rdf.AppNS + "depot")
	st.AddAll(append(grdf.NewFeature(nil, depot, rdf.IRI(rdf.AppNS+"Landmark")),
		rdf.T(depot, rdf.RDFSLabel, rdf.NewString("Rail Depot"))))
	if _, err := grdf.SetGeometry(st, depot, geom.NewPoint(2000, 2000), geom.TX83NCM); err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- Turtle serialization ---")
	if err := turtle.Write(os.Stdout, st.Graph(), nil); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- RDF/XML serialization (the paper's format) ---")
	if err := rdfxml.Write(os.Stdout, st.Graph(), nil); err != nil {
		log.Fatal(err)
	}

	// Query: which landmarks lie within the park? The grdf:within filter
	// resolves feature geometries automatically.
	fmt.Println("\n--- SPARQL: landmarks within the park ---")
	eng := grdf.NewEngine(st)
	res, err := eng.Query(`
SELECT ?label WHERE {
  ?lm a app:Landmark .
  ?lm rdfs:label ?label .
  FILTER(grdf:within(?lm, app:centralPark))
}`)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range res.Bindings() {
		fmt.Printf("  %s\n", b["label"])
	}

	// Distances via the grdf:distance function.
	fmt.Println("\n--- SPARQL: landmark distances to the park ---")
	res, err = eng.Query(`
SELECT ?lm ?label WHERE {
  ?lm a app:Landmark .
  ?lm rdfs:label ?label .
  FILTER(grdf:distance(?lm, app:centralPark) >= 0)
} ORDER BY ?label`)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range res.Bindings() {
		g1, _, _ := grdf.GeometryOf(st, b["lm"])
		parkGeo, _, _ := grdf.GeometryOf(st, park)
		fmt.Printf("  %-20s %.1f m\n", b["label"].(rdf.Literal).Value, geom.Distance(g1, parkGeo))
	}
}
