package gml

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// sampleDoc mirrors the shape of the paper's List 6/7 data as proper GML.
const sampleDoc = `<?xml version="1.0"?>
<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://grdf.org/app#">
  <gml:boundedBy>
    <gml:Envelope srsName="http://grdf.org/crs/TX83-NCF">
      <gml:lowerCorner>2530000 7100000</gml:lowerCorner>
      <gml:upperCorner>2540000 7110000</gml:upperCorner>
    </gml:Envelope>
  </gml:boundedBy>
  <gml:featureMember>
    <app:HydroStream gml:id="stream11070">
      <app:hasObjectID>11070</app:hasObjectID>
      <app:centerLineOf>
        <gml:LineString srsName="http://grdf.org/crs/TX83-NCF">
          <gml:coordinates>2533822.17263276,7108248.82783879 2533900.5,7108300.25</gml:coordinates>
        </gml:LineString>
      </app:centerLineOf>
    </app:HydroStream>
  </gml:featureMember>
  <gml:featureMember>
    <app:ChemSite gml:id="NTEnergy">
      <app:hasSiteName>North Texas Energy</app:hasSiteName>
      <app:hasSiteId>004221</app:hasSiteId>
      <gml:boundedBy>
        <gml:Envelope srsName="http://grdf.org/crs/TX83-NCF">
          <gml:lowerCorner>2533000 7107000</gml:lowerCorner>
          <gml:upperCorner>2533500 7107500</gml:upperCorner>
        </gml:Envelope>
      </gml:boundedBy>
    </app:ChemSite>
  </gml:featureMember>
</gml:FeatureCollection>`

func TestParseCollection(t *testing.T) {
	col, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(col.Features) != 2 {
		t.Fatalf("features = %d", len(col.Features))
	}
	if !col.HasBounds || col.Bounds.MinX != 2530000 {
		t.Errorf("collection bounds = %+v", col.Bounds)
	}
	stream := col.Features[0]
	if stream.TypeName != "HydroStream" || stream.ID != "stream11070" {
		t.Errorf("stream meta = %+v", stream)
	}
	if v, ok := stream.Prop("hasObjectID"); !ok || v != "11070" {
		t.Errorf("hasObjectID = %q %t", v, ok)
	}
	if stream.Geometry == nil || stream.Geometry.Kind() != geom.KindLineString {
		t.Fatalf("stream geometry = %v", stream.Geometry)
	}
	if stream.GeomProperty != "centerLineOf" {
		t.Errorf("GeomProperty = %q", stream.GeomProperty)
	}
	if stream.SRSName != "http://grdf.org/crs/TX83-NCF" {
		t.Errorf("SRSName = %q", stream.SRSName)
	}
	site := col.Features[1]
	if !site.HasBounds || site.Bounds.MaxX != 2533500 {
		t.Errorf("site bounds = %+v", site.Bounds)
	}
	if v, _ := site.Prop("hasSiteName"); v != "North Texas Energy" {
		t.Errorf("hasSiteName = %q", v)
	}
}

func TestParseGeometryVariants(t *testing.T) {
	doc := `<?xml version="1.0"?>
<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://e/">
  <gml:featureMember>
    <app:Zone>
      <app:extent>
        <gml:Polygon>
          <gml:exterior><gml:LinearRing><gml:posList>0 0 4 0 4 4 0 4 0 0</gml:posList></gml:LinearRing></gml:exterior>
          <gml:interior><gml:LinearRing><gml:posList>1 1 2 1 2 2 1 2 1 1</gml:posList></gml:LinearRing></gml:interior>
        </gml:Polygon>
      </app:extent>
    </app:Zone>
  </gml:featureMember>
  <gml:featureMember>
    <app:Spot>
      <gml:Point><gml:pos>5 6</gml:pos></gml:Point>
    </app:Spot>
  </gml:featureMember>
  <gml:featureMember>
    <app:Net>
      <app:lines>
        <gml:MultiLineString>
          <gml:lineStringMember><gml:LineString><gml:posList>0 0 1 1</gml:posList></gml:LineString></gml:lineStringMember>
          <gml:lineStringMember><gml:LineString><gml:posList>2 2 3 3</gml:posList></gml:LineString></gml:lineStringMember>
        </gml:MultiLineString>
      </app:lines>
    </app:Net>
  </gml:featureMember>
</gml:FeatureCollection>`
	col, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(col.Features) != 3 {
		t.Fatalf("features = %d", len(col.Features))
	}
	poly, ok := col.Features[0].Geometry.(geom.Polygon)
	if !ok {
		t.Fatalf("zone geometry = %T", col.Features[0].Geometry)
	}
	if poly.Area() != 15 {
		t.Errorf("polygon area = %g", poly.Area())
	}
	pt, ok := col.Features[1].Geometry.(geom.Point)
	if !ok || pt.C != (geom.Coord{X: 5, Y: 6}) {
		t.Errorf("point = %v", col.Features[1].Geometry)
	}
	mc, ok := col.Features[2].Geometry.(geom.MultiCurve)
	if !ok || len(mc.Curves) != 2 {
		t.Errorf("multicurve = %v", col.Features[2].Geometry)
	}
}

func TestParseSingleFeatureDocument(t *testing.T) {
	doc := `<app:Site xmlns:app="http://e/" xmlns:gml="http://www.opengis.net/gml">
  <app:name>solo</app:name>
</app:Site>`
	col, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Features) != 1 || col.Features[0].TypeName != "Site" {
		t.Errorf("col = %+v", col)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml"><gml:featureMember><a:X xmlns:a="http://e/"><a:g><gml:Point></gml:Point></a:g></a:X></gml:featureMember></gml:FeatureCollection>`, // point without coords
		`<unclosed`,
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("no error for %.60s", doc)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	col, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(col)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if len(back.Features) != len(col.Features) {
		t.Fatalf("features %d -> %d", len(col.Features), len(back.Features))
	}
	for i := range col.Features {
		a, b := col.Features[i], back.Features[i]
		if a.TypeName != b.TypeName || len(a.Properties) != len(b.Properties) {
			t.Errorf("feature %d changed: %+v -> %+v", i, a, b)
		}
		if (a.Geometry == nil) != (b.Geometry == nil) {
			t.Errorf("feature %d geometry presence changed", i)
		}
		if a.Geometry != nil && a.Geometry.Envelope() != b.Geometry.Envelope() {
			t.Errorf("feature %d geometry envelope changed", i)
		}
	}
}

func TestToGRDF(t *testing.T) {
	col, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	iris, err := ToGRDF(st, col, rdf.AppNS)
	if err != nil {
		t.Fatalf("ToGRDF: %v", err)
	}
	if len(iris) != 2 {
		t.Fatalf("iris = %v", iris)
	}
	stream := iris[0]
	if !st.Has(rdf.T(stream, rdf.RDFType, rdf.IRI(rdf.AppNS+"HydroStream"))) {
		t.Error("stream type missing")
	}
	if !st.Has(rdf.T(stream, rdf.IRI(rdf.AppNS+"hasObjectID"), rdf.NewString("11070"))) {
		t.Error("property missing")
	}
	g, srs, err := grdf.GeometryOf(st, stream)
	if err != nil || g.Kind() != geom.KindLineString {
		t.Fatalf("GeometryOf = %v, %v", g, err)
	}
	if srs != "http://grdf.org/crs/TX83-NCF" {
		t.Errorf("srs = %q", srs)
	}
	site := iris[1]
	env, ok := grdf.EnvelopeOfFeature(st, site)
	if !ok || env.MinX != 2533000 {
		t.Errorf("site envelope = %+v %t", env, ok)
	}
}

func TestGRDFRoundTrip(t *testing.T) {
	col, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := ToGRDF(st, col, rdf.AppNS); err != nil {
		t.Fatal(err)
	}
	back, err := FromGRDF(st, "")
	if err != nil {
		t.Fatalf("FromGRDF: %v", err)
	}
	if len(back.Features) != 2 {
		t.Fatalf("features = %d", len(back.Features))
	}
	byType := map[string]*Feature{}
	for i := range back.Features {
		byType[back.Features[i].TypeName] = &back.Features[i]
	}
	stream, ok := byType["HydroStream"]
	if !ok {
		t.Fatalf("HydroStream lost: %+v", byType)
	}
	if v, _ := stream.Prop("hasObjectID"); v != "11070" {
		t.Errorf("hasObjectID = %q", v)
	}
	if stream.Geometry == nil || stream.Geometry.Kind() != geom.KindLineString {
		t.Errorf("stream geometry = %v", stream.Geometry)
	}
	site := byType["ChemSite"]
	if site == nil || !site.HasBounds {
		t.Fatalf("site = %+v", site)
	}
	if v, _ := site.Prop("hasSiteName"); v != "North Texas Energy" {
		t.Errorf("hasSiteName = %q", v)
	}
	// Full circle: GML again
	out := Format(back)
	if !strings.Contains(out, "North Texas Energy") {
		t.Errorf("final GML lost data:\n%s", out)
	}
}

func TestFromGRDFFiltersGRDFInternals(t *testing.T) {
	st := store.New()
	f := rdf.IRI(rdf.AppNS + "x")
	st.AddAll(append(grdf.NewFeature(nil, f, rdf.IRI(rdf.AppNS+"Site")),
		rdf.T(f, rdf.RDFSLabel, rdf.NewString("label")), // rdfs: filtered
		rdf.T(f, rdf.IRI(rdf.AppNS+"keep"), rdf.NewString("yes"))))
	col, err := FromGRDF(st, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Features) != 1 {
		t.Fatalf("features = %d", len(col.Features))
	}
	if len(col.Features[0].Properties) != 1 || col.Features[0].Properties[0].Name != "keep" {
		t.Errorf("properties = %+v", col.Features[0].Properties)
	}
}

func TestWriteGeometryVariants(t *testing.T) {
	ring1, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0}})
	hole, _ := geom.NewLinearRing([]geom.Coord{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 1}})
	l1, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 1, Y: 1}})
	l2, _ := geom.NewLineString([]geom.Coord{{X: 2, Y: 2}, {X: 3, Y: 3}})
	geoms := []geom.Geometry{
		geom.NewPoint(5, 6),
		l1,
		geom.NewPolygon(ring1, hole),
		geom.EnvelopeOf(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 9, Y: 9}),
		geom.MultiCurve{Curves: []geom.LineString{l1, l2}},
		geom.MultiSurface{Surfaces: []geom.Polygon{geom.NewPolygon(ring1)}},
	}
	for _, g := range geoms {
		col := &Collection{Features: []Feature{{
			ID: "f1", TypeName: "Thing", Geometry: g, SRSName: "http://grdf.org/crs/TX83-NCF",
		}}}
		out := Format(col)
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", g.Kind(), err, out)
		}
		if len(back.Features) != 1 || back.Features[0].Geometry == nil {
			t.Fatalf("%s: feature lost:\n%s", g.Kind(), out)
		}
		if back.Features[0].Geometry.Envelope() != g.Envelope() {
			t.Errorf("%s: envelope changed: %v -> %v", g.Kind(),
				g.Envelope(), back.Features[0].Geometry.Envelope())
		}
		if back.Features[0].SRSName == "" {
			t.Errorf("%s: srsName lost", g.Kind())
		}
	}
	// unsupported geometry errors
	cc, _ := geom.NewCompositeCurve(l1)
	col := &Collection{Features: []Feature{{TypeName: "X", Geometry: cc}}}
	var sb strings.Builder
	if err := Write(&sb, col); err == nil {
		t.Error("unsupported geometry serialized")
	}
}

func TestParseLegacyBoxAndBoundaries(t *testing.T) {
	doc := `<?xml version="1.0"?>
<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:app="http://e/">
  <gml:featureMember>
    <app:Old>
      <gml:boundedBy>
        <gml:Box><gml:coordinates>0,0 10,10</gml:coordinates></gml:Box>
      </gml:boundedBy>
      <app:shape>
        <gml:Polygon>
          <gml:outerBoundaryIs><gml:LinearRing><gml:coordinates>0,0 4,0 4,4 0,0</gml:coordinates></gml:LinearRing></gml:outerBoundaryIs>
          <gml:innerBoundaryIs><gml:LinearRing><gml:coordinates>1,1 2,1 2,2 1,1</gml:coordinates></gml:LinearRing></gml:innerBoundaryIs>
        </gml:Polygon>
      </app:shape>
    </app:Old>
  </gml:featureMember>
</gml:FeatureCollection>`
	col, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	f := col.Features[0]
	if !f.HasBounds || f.Bounds.MaxX != 10 {
		t.Errorf("Box bounds = %+v", f.Bounds)
	}
	poly, ok := f.Geometry.(geom.Polygon)
	if !ok || len(poly.Holes) != 1 {
		t.Errorf("GML2-style polygon = %v", f.Geometry)
	}
}

func TestParseEnvelopeErrors(t *testing.T) {
	bad := []string{
		// missing upperCorner
		`<gml:Envelope xmlns:gml="http://www.opengis.net/gml"><gml:lowerCorner>0 0</gml:lowerCorner></gml:Envelope>`,
		// corner with one value
		`<gml:Envelope xmlns:gml="http://www.opengis.net/gml"><gml:lowerCorner>0</gml:lowerCorner><gml:upperCorner>1 1</gml:upperCorner></gml:Envelope>`,
	}
	for _, env := range bad {
		doc := `<gml:FeatureCollection xmlns:gml="http://www.opengis.net/gml" xmlns:a="http://e/">
  <gml:featureMember><a:X><a:g>` + env + `</a:g></a:X></gml:featureMember>
</gml:FeatureCollection>`
		if _, err := ParseString(doc); err == nil {
			t.Errorf("bad envelope accepted: %.60s", env)
		}
	}
}
