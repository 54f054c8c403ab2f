// Package integration exercises whole-system pipelines across package
// boundaries: serialization cycles, GML ingestion through the secure
// middleware, the HTTP mutation path, and reasoning over aggregated
// multi-source data.
package integration

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/ntriples"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/rdfxml"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
)

// TestSerializationCycle pushes the full scenario dataset through
// Turtle → N-Triples → RDF/XML → Turtle and requires the ground triples to
// survive every hop.
func TestSerializationCycle(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 8, Sites: 6})
	original := sc.Merged.Graph()

	ttl := turtle.Format(original, nil)
	g1, err := turtle.ParseString(ttl)
	if err != nil {
		t.Fatalf("turtle parse: %v", err)
	}
	nt := ntriples.Format(g1)
	g2, err := ntriples.ParseString(nt)
	if err != nil {
		t.Fatalf("ntriples parse: %v", err)
	}
	xml := rdfxml.Format(g2, nil)
	g3, err := rdfxml.ParseString(xml)
	if err != nil {
		t.Fatalf("rdfxml parse: %v", err)
	}
	back := turtle.Format(g3, nil)
	g4, err := turtle.ParseString(back)
	if err != nil {
		t.Fatalf("turtle reparse: %v", err)
	}
	if g4.Len() != original.Len() {
		t.Fatalf("triples %d -> %d after cycle", original.Len(), g4.Len())
	}
	for _, tr := range original.Triples() {
		if tr.Subject.Kind() == rdf.KindBlank || tr.Object.Kind() == rdf.KindBlank {
			continue // blank labels may be rewritten
		}
		if !g4.Has(tr) {
			t.Errorf("lost triple: %s", tr)
		}
	}
}

// TestGMLThroughSecureMiddleware ingests a GML document, loads it behind
// G-SACS with a property-scoped policy and verifies the filtered SPARQL
// surface.
func TestGMLThroughSecureMiddleware(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://grdf.org/app#">
  <gml:featureMember>
    <app:ChemSite gml:id="plantA">
      <app:hasSiteName>Plant A</app:hasSiteName>
      <app:hasContactPhone>972-555-0000</app:hasContactPhone>
      <gml:boundedBy>
        <gml:Envelope srsName="http://grdf.org/crs/TX83-NCF">
          <gml:lowerCorner>2530000 7100000</gml:lowerCorner>
          <gml:upperCorner>2530500 7100500</gml:upperCorner>
        </gml:Envelope>
      </gml:boundedBy>
    </app:ChemSite>
  </gml:featureMember>
</gml:FeatureCollection>`
	col, err := gml.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	data := store.New()
	if _, err := gml.ToGRDF(data, col, rdf.AppNS); err != nil {
		t.Fatal(err)
	}

	role := rdf.IRI(seconto.NS + "Inspector")
	policies := &seconto.Set{Rules: []seconto.Rule{{
		ID: seconto.NS + "InspectorView", Subject: role,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: true,
		Properties: []rdf.IRI{rdf.IRI(grdf.NS + "boundedBy"), datagen.HasSiteName},
	}}}
	engine := gsacs.New(policies, data, gsacs.Options{})

	res, err := engine.Query(role, seconto.ActionView,
		`SELECT ?n WHERE { ?s app:hasSiteName ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["n"].Equal(rdf.NewString("Plant A")) {
		t.Errorf("name query = %v", res.Bindings())
	}
	res, err = engine.Query(role, seconto.ActionView,
		`SELECT ?p WHERE { ?s app:hasContactPhone ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) != 0 {
		t.Errorf("contact leaked through GML ingestion path: %v", res.Bindings())
	}
	// Geometry survives end-to-end: the envelope decodes from the view.
	view := engine.View(role, seconto.ActionView)
	site := rdf.IRI(rdf.AppNS + "plantA")
	if env, ok := grdf.EnvelopeOfFeature(view, site); !ok || env.Width() != 500 {
		t.Errorf("envelope from view = %+v %t", env, ok)
	}
}

// TestHTTPMutationPath exercises POST /v1/mutate through the G-SACS HTTP
// front-end with authorization outcomes.
func TestHTTPMutationPath(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 8, Sites: 3})
	admin := rdf.IRI(seconto.NS + "Admin")
	sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
		ID: seconto.NS + "AdminModify", Subject: admin,
		Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
	})
	engine := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{})
	srv := httptest.NewServer(gsacs.NewServer(engine, nil))
	defer srv.Close()

	site := sc.Chemical.Sites[0].IRI
	triple := rdf.T(site, datagen.HasSiteName, rdf.NewString("HTTP Renamed"))
	insert := fmt.Sprintf(`[{"op":"insert","triples":%q}]`, triple.String())

	post := func(role, body string) int {
		resp, err := srv.Client().Post(srv.URL+"/v1/mutate?role="+role, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Unauthorized role → 403.
	if code := post("MainRep", insert); code != 403 {
		t.Errorf("main repair insert = %d, want 403", code)
	}
	// Admin → applied.
	if code := post("Admin", insert); code != 200 {
		t.Errorf("admin insert = %d, want 200", code)
	}
	if !engine.Data().Has(triple) {
		t.Error("HTTP insert did not land")
	}
	// GET on a POST endpoint → 405; malformed body → 400.
	resp, err := srv.Client().Get(srv.URL + "/v1/mutate?role=Admin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET mutate = %d", resp.StatusCode)
	}
	if code := post("Admin", `[{"op":"insert","triples":"not ntriples"}]`); code != 400 {
		t.Errorf("malformed insert = %d", code)
	}
}

// TestAggregationInferencePipeline reproduces the intro's defense scenario
// in miniature: two sources in different formats are merged, reasoned over,
// and answer a question neither could alone.
func TestAggregationInferencePipeline(t *testing.T) {
	// Source 1 (RDF/XML): a tracked vehicle sighting.
	const trackingXML = `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:app="http://grdf.org/app#"
         xmlns:grdf="http://grdf.org/ontology/grdf#">
  <app:Sighting rdf:about="http://grdf.org/app#s1">
    <app:vehiclePlate>TX-1111</app:vehiclePlate>
    <grdf:hasGeometry>
      <grdf:Point rdf:about="http://grdf.org/app#s1_geom">
        <grdf:coordinates>100,100</grdf:coordinates>
      </grdf:Point>
    </grdf:hasGeometry>
  </app:Sighting>
</rdf:RDF>`
	// Source 2 (Turtle): a criminal record tied to the same plate.
	const recordsTTL = `
@prefix app: <http://grdf.org/app#> .
app:rec9 a app:CriminalRecord ;
    app:vehiclePlate "TX-1111" ;
    app:offense "smuggling" .
app:Sighting rdfs:subClassOf grdf:Feature .
app:CriminalRecord rdfs:subClassOf grdf:Feature .
`
	g1, err := rdfxml.ParseString(trackingXML)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := turtle.ParseString(recordsTTL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := grdf.Aggregate([]grdf.Source{
		{Name: "tracking", Store: store.FromGraph(g1)},
		{Name: "records", Store: store.FromGraph(g2)},
	}, grdf.AggregateOptions{Reason: true, Ontology: grdf.Ontology()})
	if err != nil {
		t.Fatal(err)
	}
	eng := grdf.NewEngine(res.Merged)
	// Join across sources on the plate.
	out, err := eng.Query(`
SELECT ?offense WHERE {
  ?sighting a app:Sighting .
  ?sighting app:vehiclePlate ?plate .
  ?rec a app:CriminalRecord .
  ?rec app:vehiclePlate ?plate .
  ?rec app:offense ?offense .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Bindings()) != 1 || !out.Bindings()[0]["offense"].Equal(rdf.NewString("smuggling")) {
		t.Errorf("cross-source join = %v", out.Bindings())
	}
	// Inference: both records are features now.
	features, err := eng.Query(`SELECT ?f WHERE { ?f a grdf:Feature }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(features.Bindings()) != 2 {
		t.Errorf("features after reasoning = %d", len(features.Bindings()))
	}
}

// TestReasonerPluggability swaps reasoners behind the gsacs.Reasoner
// interface and shows the decision difference on a subclass-targeted policy.
func TestReasonerPluggability(t *testing.T) {
	data := store.New()
	site := rdf.IRI("http://e/site")
	deepClass := rdf.IRI("http://e/DeepChemSite")
	midClass := rdf.IRI("http://e/MidChemSite")
	data.Add(rdf.T(site, rdf.RDFType, deepClass))
	data.Add(rdf.T(deepClass, rdf.RDFSSubClassOf, midClass))
	data.Add(rdf.T(midClass, rdf.RDFSSubClassOf, datagen.ChemSite))

	role := rdf.IRI(seconto.NS + "R")
	policies := &seconto.Set{Rules: []seconto.Rule{{
		ID: seconto.NS + "P", Subject: role,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: true,
	}}}

	// Syntactic engine: one-level subclass check misses the 2-hop chain.
	plain := gsacs.New(policies, data, gsacs.Options{})
	if plain.Decide(role, seconto.ActionView, site).Allowed {
		t.Error("syntactic engine resolved a 2-hop subclass chain (unexpected)")
	}
	// OWL engine: transitivity closes the chain.
	r := owl.NewReasonerOver(store.New())
	r.AddAll(data.Triples())
	reasoned := gsacs.New(policies, data, gsacs.Options{Reasoner: r})
	if !reasoned.Decide(role, seconto.ActionView, site).Allowed {
		t.Error("OWL engine failed to resolve the subclass chain")
	}
}
