package gsacs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/turtle"
)

// queryShape is one of the bench harness's /v1/query shapes (bench/ops.go),
// plus the listing with a one-pattern OPTIONAL.
type queryShape struct{ name, q string }

func queryShapes(sc *datagen.Scenario) []queryShape {
	return []queryShape{
		{"point", fmt.Sprintf(`SELECT ?chem WHERE { %s app:hasChemicalInfo ?info . ?info app:chemical ?rec . ?rec app:hasChemName ?chem . }`, sc.Chemical.Sites[0].IRI)},
		{"list", `SELECT ?site ?name WHERE { ?site a app:ChemSite . ?site app:hasSiteName ?name . }`},
		{"agg", `SELECT ?site ?name ?chem WHERE { ?site a app:ChemSite . ?site app:hasSiteName ?name . ?site app:hasChemicalInfo ?info . ?info app:chemical ?rec . ?rec app:hasChemName ?chem . }`},
		{"optional", `SELECT ?site ?name ?phone WHERE { ?site a app:ChemSite . ?site app:hasSiteName ?name . OPTIONAL { ?site app:hasContactPhone ?phone } }`},
		{"spatial", fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < 5280) }`, sc.Hydrology.Streams[0].IRI)},
	}
}

// shapeServer serves a generated scenario of the given size.
func shapeServer(sites int) (*Server, *datagen.Scenario) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: sites})
	e := New(sc.Policies, sc.Merged, Options{Reasoner: NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())})
	return NewServer(e, NewOntoRepository()), sc
}

func queryRequest(role rdf.IRI, q string) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/v1/query?role="+url.QueryEscape(role.LocalName())+"&q="+url.QueryEscape(q), nil)
}

// TestQueryBodiesAreTheBytesTheyWere: the five shapes × three roles over the
// 12-site scenario answer with the bodies the map-per-row evaluator and
// writer gave (their SHA-256, taken at f4be840) — same rows, same row order
// (a join's is index order on both sides), same bytes per cell.
func TestQueryBodiesAreTheBytesTheyWere(t *testing.T) {
	golden := []struct {
		shape, role string
		rows        int
		sum         string
	}{
		{"point", "MainRep", 0, "75f0faf83f5a251a"},
		{"point", "Hazmat", 3, "b4dc006d7aeaaf32"},
		{"point", "EmergencyResponse", 3, "b4dc006d7aeaaf32"},
		{"list", "MainRep", 0, "3acc720ff620bd74"},
		{"list", "Hazmat", 12, "8c1847f41508e562"},
		{"list", "EmergencyResponse", 12, "b0661c8c77ba66f1"},
		{"agg", "MainRep", 0, "92ca0a47c4505e5e"},
		{"agg", "Hazmat", 25, "9289ea51dfe755a2"},
		{"agg", "EmergencyResponse", 25, "0ad58f3907433a0c"},
		{"optional", "MainRep", 0, "3b4b4e7ea62360e6"},
		{"optional", "Hazmat", 12, "0da733239d1bebc5"},
		{"optional", "EmergencyResponse", 12, "f1afdb167c0e84d2"},
		{"spatial", "MainRep", 3, "40989e6a7f32e04a"},
		{"spatial", "Hazmat", 3, "40989e6a7f32e04a"},
		{"spatial", "EmergencyResponse", 3, "4542511e92a97f4a"},
	}
	srv, sc := shapeServer(12)
	shapes := map[string]string{}
	for _, sh := range queryShapes(sc) {
		shapes[sh.name] = sh.q
	}
	for _, g := range golden {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, queryRequest(rdf.IRI(seconto.NS+g.role), shapes[g.shape]))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s as %s: %d %s", g.shape, g.role, rec.Code, rec.Body)
		}
		rows := strings.Count(rec.Body.String(), "{") - 2
		if sum := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes()))[:16]; sum != g.sum || rows != g.rows {
			t.Errorf("%s as %s: %d rows, body %s; want %d rows, %s\n%s", g.shape, g.role, rows, sum, g.rows, g.sum, rec.Body)
		}
	}
}

// nullWriter is a ResponseWriter that keeps nothing.
type nullWriter struct{ h http.Header }

func (w nullWriter) Header() http.Header         { return w.h }
func (w nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nullWriter) WriteHeader(int)             {}

// BenchmarkQueryShapes is one /v1/query of each shape through
// Server.ServeHTTP — admission, the role's cached view, parse, plan, join,
// encode — at the harness's M and L dataset sizes.
func BenchmarkQueryShapes(b *testing.B) {
	for _, sites := range []int{450, 3000} {
		srv, sc := shapeServer(sites)
		for _, sh := range queryShapes(sc) {
			b.Run(fmt.Sprintf("%s/sites=%d", sh.name, sites), func(b *testing.B) {
				req := queryRequest(datagen.RoleHazmat, sh.q) // Hazmat sees the chemical names the walk ends at
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req) // builds the view
				rows := strings.Count(rec.Body.String(), "{") - 2
				w := nullWriter{h: http.Header{}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.ServeHTTP(w, req)
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// TestQueryAllocationsPerRow: a result row costs its share of a few growing
// slices, not a map (the evaluator made 29.5 allocations per row of the
// aggregation walk and 18 per row of the listing when every join step cloned a
// map per match and the output was a map per row, twice). The bounds are what
// a query measures with its cells made once per view dictionary — 136
// allocations for the listing's 450 rows, 212 for the walk's 900 — plus 15%.
func TestQueryAllocationsPerRow(t *testing.T) {
	checkAllocationsPerRow(t, map[string]rowBound{"list": {450, 136.0 / 450 * 1.15}, "agg": {900, 212.0 / 900 * 1.15}})
}

// TestSpatialAllocationsPerRow: the spatial shape's distance FILTER walks the
// geometries' segments, vertices and areal parts where they are. The bound is
// the measured 763 allocations for 110 rows plus 15%; a segment list made per
// call cost 1,200, and point and polygon lists made per call 897.
func TestSpatialAllocationsPerRow(t *testing.T) {
	checkAllocationsPerRow(t, map[string]rowBound{"spatial": {110, 763.0 / 110 * 1.15}})
}

// rowBound is the rows a shape answers with and the allocations it may make
// per row.
type rowBound struct {
	rows   int
	perRow float64
}

// checkAllocationsPerRow bounds the allocations of one /v1/query of each
// named shape, as Hazmat over the warm 450-site view, per row of its answer.
func checkAllocationsPerRow(t *testing.T, bounds map[string]rowBound) {
	srv, sc := shapeServer(450)
	for _, sh := range queryShapes(sc) {
		b, ok := bounds[sh.name]
		if !ok {
			continue
		}
		req := queryRequest(datagen.RoleHazmat, sh.q) // Hazmat sees the chemical names the walk ends at
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		rows := strings.Count(rec.Body.String(), "{") - 2
		if rec.Code != http.StatusOK || rows != b.rows {
			t.Fatalf("%s: status %d, %d rows; want %d", sh.name, rec.Code, rows, b.rows)
		}
		w := nullWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(10, func() { srv.ServeHTTP(w, req) })
		t.Logf("%s: %.0f allocations for %d rows", sh.name, allocs, rows)
		if allocs > b.perRow*float64(rows) {
			t.Errorf("%s: %.0f allocations for %d rows; want at most %.2f per row", sh.name, allocs, rows, b.perRow)
		}
	}
}

// TestViewExportIsTheTurtleItWas: /v1/view, which hands the view's triples
// to the writers as they are, answers with the document the writers make of
// the graph the view used to be copied into — for every role, over a plain
// scenario and one with the hard cases (a geometry node shared by two
// features, one that is a part of itself, inlined envelopes) — and that
// document reads back as the view. Every term of both scenarios is also
// formatted both ways: AppendTerm is String. The document is served from
// memory after the first export: a second GET is the same bytes, HEAD is its
// headers, and an If-None-Match naming its ETag is a 304 with no body.
func TestViewExportIsTheTurtleItWas(t *testing.T) {
	plain := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	odd := datagen.NewScenario(datagen.ScenarioConfig{Seed: 61, Sites: 16, Trunks: 2})
	oddities(t, odd.Merged, odd)
	for _, sc := range []*datagen.Scenario{plain, odd} {
		e := New(sc.Policies, sc.Merged, Options{Reasoner: NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())})
		srv := NewServer(e, NewOntoRepository())
		for _, role := range scenarioRoles {
			g := e.View(role, seconto.ActionView).Graph()
			for format, want := range map[string]string{"turtle": turtle.Format(g, nil), "ntriples": ntriples.Format(g)} {
				path := "/v1/view?role=" + role.LocalName() + "&format=" + format
				export := func(method, ifNoneMatch string) *httptest.ResponseRecorder {
					req := httptest.NewRequest(method, path, nil)
					if ifNoneMatch != "" {
						req.Header.Set("If-None-Match", ifNoneMatch)
					}
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					return rec
				}
				first, again := export(http.MethodGet, ""), export(http.MethodGet, "")
				if first.Code != http.StatusOK || first.Body.String() != want {
					t.Errorf("%s as %s: status %d, %d bytes; the graph writes %d", format, role.LocalName(), first.Code, first.Body.Len(), len(want))
				}
				etag := first.Header().Get("ETag")
				if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) || again.Header().Get("ETag") != etag || etag == "" {
					t.Errorf("%s as %s: a second GET answers %d, %d bytes, ETag %q; the first %d bytes, ETag %q",
						format, role.LocalName(), again.Code, again.Body.Len(), again.Header().Get("ETag"), first.Body.Len(), etag)
				}
				length := strconv.Itoa(len(want))
				if head := export(http.MethodHead, ""); head.Code != http.StatusOK || head.Body.Len() != 0 ||
					head.Header().Get("Content-Length") != length || first.Header().Get("Content-Length") != length {
					t.Errorf("%s as %s: HEAD %d with %d body bytes, Content-Length %q (GET %q); want %s and no body",
						format, role.LocalName(), head.Code, head.Body.Len(), head.Header().Get("Content-Length"), first.Header().Get("Content-Length"), length)
				}
				if nm := export(http.MethodGet, `"stale", `+etag); nm.Code != http.StatusNotModified || nm.Body.Len() != 0 || nm.Header().Get("ETag") != etag {
					t.Errorf("%s as %s: If-None-Match its ETag answers %d with %d bytes", format, role.LocalName(), nm.Code, nm.Body.Len())
				}
			}
			back, err := turtle.ParseString(turtle.Format(g, nil))
			if err != nil || back.Len() != g.Len() {
				t.Errorf("%s: the export reads back as %d triples of %d (%v)", role.LocalName(), back.Len(), g.Len(), err)
			}
		}
		for _, tr := range sc.Merged.Triples() {
			for _, term := range []rdf.Term{tr.Subject, tr.Predicate, tr.Object} {
				if got := string(rdf.AppendTerm(nil, term)); got != term.String() {
					t.Fatalf("AppendTerm = %q, String = %q", got, term.String())
				}
			}
		}
	}
}
