package grdf

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

func TestOntologyStructure(t *testing.T) {
	g := Ontology()
	r := Report(g)
	if r.Classes < 35 {
		t.Errorf("Classes = %d, want >= 35", r.Classes)
	}
	if r.ObjectProperties < 20 {
		t.Errorf("ObjectProperties = %d, want >= 20", r.ObjectProperties)
	}
	if r.DataProperties < 6 {
		t.Errorf("DataProperties = %d, want >= 6", r.DataProperties)
	}
	if r.Restrictions != 4 {
		t.Errorf("Restrictions = %d, want 4 (List 3 + three from List 5)", r.Restrictions)
	}
	// Fig. 1 hierarchy spot checks.
	checks := [][2]rdf.IRI{
		{Feature, RootGRDFObject},
		{Geometry, RootGRDFObject},
		{Topology, RootGRDFObject},
		{Observation, Feature},
		{EnvelopeWithTimePeriod, Envelope},
		{Envelope, BoundingShape},
		{LineString, Curve},
		{Polygon, Surface},
		{TopoNode, TopoPrimitive},
		{TopoFace, TopoPrimitive},
		{TopoComplex, Topology},
	}
	for _, c := range checks {
		if !g.Has(rdf.T(c[0], rdf.RDFSSubClassOf, c[1])) {
			t.Errorf("missing subclass edge %s -> %s", c[0].LocalName(), c[1].LocalName())
		}
	}
	// List 2 properties exist.
	for _, p := range []rdf.IRI{HasCenterLineOf, HasCenterOf, HasEdgeOf, HasEnvelope, HasExtentOf} {
		if !g.Has(rdf.T(p, rdf.RDFType, rdf.OWLObjectProperty)) {
			t.Errorf("List 2 property %s missing", p.LocalName())
		}
	}
}

func TestOntologyConsistentUnderReasoning(t *testing.T) {
	st := store.FromGraph(Ontology())
	m, stats := owl.Materialize(st)
	if stats.Inferred == 0 {
		t.Error("ontology materialization inferred nothing")
	}
	// The class hierarchy must become transitive: LineString is a Geometry.
	if !m.Has(rdf.T(LineString, rdf.RDFSSubClassOf, Geometry)) {
		t.Error("transitive subclass edge missing after materialization")
	}
	if vs := owl.Check(m); len(vs) != 0 {
		t.Errorf("ontology has violations: %v", vs)
	}
}

func TestEnvelopeWithTimePeriodCardinality(t *testing.T) {
	st := store.FromGraph(Ontology())
	env := rdf.IRI("http://e/env1")
	st.Add(rdf.T(env, rdf.RDFType, EnvelopeWithTimePeriod))
	st.Add(rdf.T(env, HasTimePosition, rdf.IRI("http://e/t1")))
	// only one time position: violates List 3's cardinality 2
	m, _ := owl.Materialize(st)
	vs := owl.Check(m)
	found := false
	for _, v := range vs {
		if v.Subject.Equal(env) && v.Kind == "cardinality" {
			found = true
		}
	}
	if !found {
		t.Errorf("List 3 cardinality violation not detected: %v", vs)
	}
}

// newFeature commits a feature of class to st and returns its IRI.
func newFeature(st *store.Store, id, class rdf.IRI) rdf.IRI {
	st.AddAll(NewFeature(nil, id, class))
	return id
}

func roundTripGeometry(t *testing.T, g geom.Geometry) geom.Geometry {
	t.Helper()
	st := store.New()
	node := rdf.IRI("http://e/geo")
	ts, err := EncodeGeometry(nil, node, g, geom.TX83NCF)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	st.AddAll(ts)
	back, srs, err := DecodeGeometry(st, node)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if srs != geom.TX83NCF {
		t.Errorf("srs = %q", srs)
	}
	return back
}

func TestGeometryRoundTrips(t *testing.T) {
	ring, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0}})
	hole, _ := geom.NewLinearRing([]geom.Coord{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 1}})
	line, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 9, Y: 2}})
	line2, _ := geom.NewLineString([]geom.Coord{{X: 9, Y: 2}, {X: 12, Y: 0}})
	cc, _ := geom.NewCompositeCurve(line, line2)

	cases := []geom.Geometry{
		geom.NewPoint(2533822.17, 7108248.83),
		line,
		ring,
		geom.NewPolygon(ring, hole),
		geom.EnvelopeOf(geom.Coord{X: 1, Y: 2}, geom.Coord{X: 3, Y: 4}),
		geom.MultiPoint{Points: []geom.Point{geom.NewPoint(1, 1), geom.NewPoint(2, 2)}},
		geom.MultiCurve{Curves: []geom.LineString{line, line2}},
		geom.MultiSurface{Surfaces: []geom.Polygon{geom.NewPolygon(ring)}},
		cc,
		geom.Complex{Members: []geom.Geometry{geom.NewPoint(0, 0), line}},
		geom.Solid{Boundary: []geom.Polygon{geom.NewPolygon(ring)}},
	}
	for _, c := range cases {
		back := roundTripGeometry(t, c)
		if back.Kind() != c.Kind() {
			t.Errorf("kind %s -> %s", c.Kind(), back.Kind())
			continue
		}
		if be, ce := back.Envelope(), c.Envelope(); be != ce {
			t.Errorf("%s envelope %+v -> %+v", c.Kind(), ce, be)
		}
	}
}

func TestPolygonRoundTripPreservesHoles(t *testing.T) {
	ring, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0}})
	hole, _ := geom.NewLinearRing([]geom.Coord{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 1}})
	back := roundTripGeometry(t, geom.NewPolygon(ring, hole)).(geom.Polygon)
	if len(back.Holes) != 1 {
		t.Fatalf("holes = %d", len(back.Holes))
	}
	if back.Area() != 15 {
		t.Errorf("area = %g", back.Area())
	}
}

func TestDecodeErrors(t *testing.T) {
	st := store.New()
	node := rdf.IRI("http://e/geo")
	if _, _, err := DecodeGeometry(st, node); err == nil {
		t.Error("decode of untyped node succeeded")
	}
	st.Add(rdf.T(node, rdf.RDFType, Point))
	if _, _, err := DecodeGeometry(st, node); err == nil {
		t.Error("decode of point without coordinates succeeded")
	}
	st.Add(rdf.T(node, Coordinates, rdf.NewString("not-coords")))
	if _, _, err := DecodeGeometry(st, node); err == nil {
		t.Error("decode of malformed coordinates succeeded")
	}
	poly := rdf.IRI("http://e/poly")
	st.Add(rdf.T(poly, rdf.RDFType, Polygon))
	if _, _, err := DecodeGeometry(st, poly); err == nil {
		t.Error("polygon without exterior decoded")
	}
}

func TestNewFeatureAndGeometryOf(t *testing.T) {
	st := store.New()
	site := newFeature(st, rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.IRI(rdf.AppNS+"ChemSite"))
	// app:ChemSite is auto-linked under grdf:Feature
	if !st.Has(rdf.T(rdf.IRI(rdf.AppNS+"ChemSite"), rdf.RDFSSubClassOf, Feature)) {
		t.Error("domain class not linked under grdf:Feature")
	}
	env := geom.EnvelopeOf(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 10, Y: 10})
	if _, err := SetEnvelope(st, site, env, geom.TX83NCF); err != nil {
		t.Fatal(err)
	}
	got, ok := EnvelopeOfFeature(st, site)
	if !ok || got != env.Envelope() {
		t.Errorf("EnvelopeOfFeature = %+v, %t", got, ok)
	}
	g, srs, err := GeometryOf(st, site)
	if err != nil || g.Kind() != geom.KindEnvelope || srs != geom.TX83NCF {
		t.Errorf("GeometryOf = %v, %q, %v", g, srs, err)
	}
}

func TestGeometryOfViaHasGeometry(t *testing.T) {
	st := store.New()
	stream := newFeature(st, rdf.IRI("http://e/stream"), Feature)
	line, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 100, Y: 100}})
	if _, err := SetGeometry(st, stream, line, geom.TX83NCF); err != nil {
		t.Fatal(err)
	}
	g, _, err := GeometryOf(st, stream)
	if err != nil || g.Kind() != geom.KindLineString {
		t.Fatalf("GeometryOf = %v, %v", g, err)
	}
	if g.(geom.LineString).Length() != line.Length() {
		t.Error("length changed through round trip")
	}
	if _, _, err := GeometryOf(st, rdf.IRI("http://e/nothing")); err == nil {
		t.Error("feature without geometry resolved")
	}
}

// TestDecodeGeometryCycle: a geometry node that is a part of itself — directly,
// or through another node — is an error, not a stack overflow: /v1/mutate lets
// any role with Modify write such member edges, and the next spatial query or
// spatially scoped decision decodes them.
func TestDecodeGeometryCycle(t *testing.T) {
	st := store.New()
	selfish := newFeature(st, rdf.IRI("http://e/selfish"), rdf.IRI("http://e/Site"))
	a := rdf.Term(rdf.NewBlankNode())
	st.AddAll([]rdf.Triple{
		rdf.T(selfish, HasGeometry, a),
		rdf.T(a, rdf.RDFType, ComplexGeometry), rdf.T(a, GeometryMember, a),
	})
	pair := newFeature(st, rdf.IRI("http://e/pair"), rdf.IRI("http://e/Site"))
	b, c := rdf.Term(rdf.NewBlankNode()), rdf.Term(rdf.NewBlankNode())
	st.AddAll([]rdf.Triple{
		rdf.T(pair, HasGeometry, b),
		rdf.T(b, rdf.RDFType, MultiSurface), rdf.T(b, SurfaceMember, c),
		rdf.T(c, rdf.RDFType, Polygon), rdf.T(c, Exterior, b),
	})
	// A node shared by two members is not a cycle.
	shared := newFeature(st, rdf.IRI("http://e/shared"), rdf.IRI("http://e/Site"))
	top, left, right, pt := rdf.NewBlankNode(), rdf.NewBlankNode(), rdf.NewBlankNode(), rdf.NewBlankNode()
	st.AddAll([]rdf.Triple{
		rdf.T(shared, HasGeometry, top),
		rdf.T(top, rdf.RDFType, ComplexGeometry), rdf.T(top, GeometryMember, left), rdf.T(top, GeometryMember, right),
		rdf.T(left, rdf.RDFType, MultiPoint), rdf.T(left, PointMember, pt),
		rdf.T(right, rdf.RDFType, MultiPoint), rdf.T(right, PointMember, pt),
	})
	ts, err := EncodeGeometry(nil, pt, geom.NewPoint(3, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll(ts)

	for _, f := range []rdf.IRI{selfish, pair} {
		if g, _, err := GeometryOf(st, f); err == nil {
			t.Errorf("GeometryOf(%s) = %v, want an error", f, g)
		}
	}
	if _, _, err := GeometryOf(st, shared); err != nil {
		t.Errorf("GeometryOf(shared) = %v; a node reached twice is not a cycle", err)
	}

	// The filter errors on the cyclic rows, which drops them; the rest answer.
	res, err := NewEngine(st).Query(`
PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:Site . FILTER(grdf:distance(?s, ex:shared) < 1) }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(shared) {
		t.Errorf("distance results = %v, want only ex:shared", res.Bindings())
	}
}

func TestSpatialSparqlFunctions(t *testing.T) {
	st := store.New()
	zoneRing, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}, {X: 0, Y: 0}})
	zone := newFeature(st, rdf.IRI("http://e/zone"), rdf.IRI("http://e/Zone"))
	if _, err := SetGeometry(st, zone, geom.NewPolygon(zoneRing), ""); err != nil {
		t.Fatal(err)
	}
	inside := newFeature(st, rdf.IRI("http://e/inside"), rdf.IRI("http://e/Site"))
	if _, err := SetGeometry(st, inside, geom.NewPoint(50, 50), ""); err != nil {
		t.Fatal(err)
	}
	outside := newFeature(st, rdf.IRI("http://e/outside"), rdf.IRI("http://e/Site"))
	if _, err := SetGeometry(st, outside, geom.NewPoint(500, 500), ""); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(st)
	res, err := e.Query(`
PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:Site . FILTER(grdf:within(?s, ex:zone)) }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/inside")) {
		t.Errorf("within results = %v", res.Bindings())
	}

	res, err = e.Query(`
PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:Site . FILTER(grdf:distance(?s, ex:zone) > 100) }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0]["s"].Equal(rdf.IRI("http://e/outside")) {
		t.Errorf("distance results = %v", res.Bindings())
	}

	res, err = e.Query(`
PREFIX ex: <http://e/>
ASK { FILTER(grdf:intersects(ex:inside, ex:zone)) }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Bool {
		t.Error("intersects ASK = false")
	}
	res, err = e.Query(`
PREFIX ex: <http://e/>
ASK { FILTER(grdf:contains(ex:zone, ex:inside)) }`)
	if err != nil || !res.Bool {
		t.Errorf("contains ASK = %v, %v", res, err)
	}
}

// TestSpatialFunctionsJudgeByThePinnedVersion: on an engine over a store that
// is being written, a spatial FILTER reads geometries from the version the
// query pinned, not from whatever the store holds by the time the FILTER
// runs. The write here lands between the join and the spatial FILTER — from
// inside an earlier FILTER, so that it lands there every time.
func TestSpatialFunctionsJudgeByThePinnedVersion(t *testing.T) {
	st := store.New()
	zoneRing, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}, {X: 0, Y: 0}})
	zone := newFeature(st, rdf.IRI("http://e/zone"), rdf.IRI("http://e/Zone"))
	if _, err := SetGeometry(st, zone, geom.NewPolygon(zoneRing), ""); err != nil {
		t.Fatal(err)
	}
	site := newFeature(st, rdf.IRI("http://e/site"), rdf.IRI("http://e/Site"))
	node, err := SetGeometry(st, site, geom.NewPoint(50, 50), "")
	if err != nil {
		t.Fatal(err)
	}
	here, _ := st.FirstObject(node, Coordinates)

	e := NewEngine(st)
	moved := false
	e.RegisterFunc(rdf.IRI("http://e/writeLands"), func(store.StoreView, []rdf.Term) (rdf.Term, error) {
		if !moved {
			moved = true
			if ok, err := st.Replace(rdf.T(node, Coordinates, here), rdf.T(node, Coordinates, rdf.NewString("500,500"))); !ok || err != nil {
				t.Errorf("move: %v, %v", ok, err)
			}
		}
		return rdf.NewBoolean(true), nil
	})
	const q = `
PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:Site . FILTER(ex:writeLands(?s)) FILTER(grdf:within(?s, ex:zone)) }`
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("the write never landed")
	}
	if len(res.Bindings()) != 1 {
		t.Errorf("query pinned before the move: %d rows, want the site where that version has it", len(res.Bindings()))
	}
	if res, err = e.Query(q); err != nil || len(res.Bindings()) != 0 {
		t.Errorf("query pinned after the move: %v, %v; want no rows", res, err)
	}
}

func TestAggregateMergesAndCounts(t *testing.T) {
	hydro := store.New()
	newFeature(hydro, rdf.IRI("http://e/stream"), Feature)
	chem := store.New()
	newFeature(chem, rdf.IRI("http://e/site"), rdf.IRI(rdf.AppNS+"ChemSite"))

	res, err := Aggregate([]Source{
		{Name: "hydrology", Store: hydro},
		{Name: "chemical", Store: chem},
	}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Len() != hydro.Len()+chem.Len() {
		t.Errorf("merged = %d", res.Merged.Len())
	}
	if res.SourceTriples["hydrology"] != hydro.Len() {
		t.Errorf("SourceTriples = %v", res.SourceTriples)
	}
}

func TestAggregateWithReasoning(t *testing.T) {
	data := store.New()
	newFeature(data, rdf.IRI("http://e/site"), rdf.IRI(rdf.AppNS+"ChemSite"))
	res, err := Aggregate([]Source{{Name: "d", Store: data}}, AggregateOptions{
		Reason:   true,
		Ontology: Ontology(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferred == 0 {
		t.Error("no inferences over merged store")
	}
	// the site must now be typed as grdf:Feature and RootGRDFObject
	if !res.Merged.Has(rdf.T(rdf.IRI("http://e/site"), rdf.RDFType, Feature)) {
		t.Error("inference did not type site as Feature")
	}
	if !res.Merged.Has(rdf.T(rdf.IRI("http://e/site"), rdf.RDFType, RootGRDFObject)) {
		t.Error("inference did not type site as RootGRDFObject")
	}
}

func TestNormalizeCRS(t *testing.T) {
	reg := geom.NewRegistry()
	st := store.New()
	// one feature in feet, one in meters
	f1 := newFeature(st, rdf.IRI("http://e/f1"), Feature)
	if _, err := SetGeometry(st, f1, geom.NewPoint(2500000, 7000000), geom.TX83NCF); err != nil {
		t.Fatal(err)
	}
	f2 := newFeature(st, rdf.IRI("http://e/f2"), Feature)
	if _, err := SetGeometry(st, f2, geom.NewPoint(0, 0), geom.TX83NCM); err != nil {
		t.Fatal(err)
	}
	n, err := NormalizeCRS(st, reg, geom.TX83NCM)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("rewritten = %d, want 1", n)
	}
	g1, srs1, err := GeometryOf(st, f1)
	if err != nil || srs1 != geom.TX83NCM {
		t.Fatalf("after normalize: %v %q %v", g1, srs1, err)
	}
	// 2500000 ft east of the false origin is the origin itself in the
	// reference frame, which in TX83NCM coordinates is also (0,0)... verify
	// agreement instead of absolute values:
	p1 := g1.(geom.Point).C
	ref1, _ := reg.Transform(p1, geom.TX83NCM, geom.ReferenceCRS)
	origFt, _ := reg.Transform(geom.Coord{X: 2500000, Y: 7000000}, geom.TX83NCF, geom.ReferenceCRS)
	if math.Abs(ref1.X-origFt.X) > 1e-6 || math.Abs(ref1.Y-origFt.Y) > 1e-6 {
		t.Errorf("normalized point %v does not match original location %v", ref1, origFt)
	}
}

func TestNormalizeCRSPolygonNested(t *testing.T) {
	reg := geom.NewRegistry()
	st := store.New()
	ring, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 328.083333, Y: 0}, {X: 328.083333, Y: 328.083333}, {X: 0, Y: 328.083333}, {X: 0, Y: 0}})
	f := newFeature(st, rdf.IRI("http://e/f"), Feature)
	if _, err := SetGeometry(st, f, geom.NewPolygon(ring), geom.TX83NCF); err != nil {
		t.Fatal(err)
	}
	if _, err := NormalizeCRS(st, reg, geom.TX83NCM); err != nil {
		t.Fatal(err)
	}
	g, srs, err := GeometryOf(st, f)
	if err != nil || srs != geom.TX83NCM {
		t.Fatalf("after normalize: %v %q", srs, err)
	}
	// 328.08ft ≈ 100m sides → area ≈ 10000 m²
	area := g.(geom.Polygon).Area()
	if math.Abs(area-10000) > 1 {
		t.Errorf("area = %g, want ≈10000", area)
	}
}

func TestSpatialJoin(t *testing.T) {
	st := store.New()
	streamClass := rdf.IRI("http://e/Stream")
	siteClass := rdf.IRI("http://e/Site")
	stream := newFeature(st, rdf.IRI("http://e/stream"), streamClass)
	line, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 1000, Y: 0}})
	if _, err := SetGeometry(st, stream, line, ""); err != nil {
		t.Fatal(err)
	}
	near := newFeature(st, rdf.IRI("http://e/near"), siteClass)
	if _, err := SetGeometry(st, near, geom.NewPoint(500, 50), ""); err != nil {
		t.Fatal(err)
	}
	far := newFeature(st, rdf.IRI("http://e/far"), siteClass)
	if _, err := SetGeometry(st, far, geom.NewPoint(500, 5000), ""); err != nil {
		t.Fatal(err)
	}
	pairs, err := SpatialJoin(st, streamClass, siteClass, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || !pairs[0].B.Equal(rdf.IRI("http://e/near")) {
		t.Errorf("pairs = %v", pairs)
	}
	if pairs[0].Distance != 50 {
		t.Errorf("distance = %g", pairs[0].Distance)
	}
}

func TestOntologySerializesToTurtle(t *testing.T) {
	g := Ontology()
	out := turtle.Format(g, nil)
	back, err := turtle.ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.Len() != g.Len() {
		t.Errorf("round trip %d -> %d", g.Len(), back.Len())
	}
}

func TestEnvelopeOfFeatureFallbacks(t *testing.T) {
	st := store.New()
	f := newFeature(st, rdf.IRI("http://e/f"), Feature)
	// no geometry at all
	if _, ok := EnvelopeOfFeature(st, f); ok {
		t.Error("envelope found for bare feature")
	}
	// geometry but no boundedBy: falls back to geometry envelope
	line, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 10, Y: 10}})
	if _, err := SetGeometry(st, f, line, ""); err != nil {
		t.Fatal(err)
	}
	env, ok := EnvelopeOfFeature(st, f)
	if !ok || env.MaxX != 10 {
		t.Errorf("fallback envelope = %+v %t", env, ok)
	}
	// broken boundedBy node: falls through to geometry
	bad := rdf.IRI("http://e/badenv")
	st.Add(rdf.T(f, BoundedBy, bad))
	env, ok = EnvelopeOfFeature(st, f)
	if !ok || env.MaxX != 10 {
		t.Errorf("broken boundedBy fallback = %+v %t", env, ok)
	}
}
