package gsacs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The acceptance gate for the spatial index: a query answered by probing the
// index and refining (grdf.NewEngine, what the server runs) returns exactly
// the rows the same query returns when the spatial functions are plain
// post-filters that decode both arguments from triples on every row. The
// plain arm is registered here, in the test; production has no such switch.

// spatialArm says how a test engine resolves a geometry argument.
type spatialArm func(at store.StoreView, t rdf.Term) (geom.Geometry, error)

// scanArm decodes from triples, per call: the functions as they were before
// the index, and the reference.
func scanArm(at store.StoreView, t rdf.Term) (geom.Geometry, error) {
	g, _, err := grdf.GeometryOf(at, t)
	return g, err
}

// memoArm looks the geometry up in the version's index but registers no
// prober: every row still reaches the FILTER.
func memoArm(at store.StoreView, t rdf.Term) (geom.Geometry, error) {
	if id, ok := at.LookupID(t); ok {
		if g, ok := grdf.IndexOf(at).Geometry(id); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no geometry for %s", t)
}

// plainEngine is an engine over st whose spatial functions are post-filters
// resolving through arm.
func plainEngine(st *store.Store, arm spatialArm) *sparql.Engine {
	e := sparql.NewEngine(st)
	register := func(iri rdf.IRI, value func(a, b geom.Geometry) rdf.Term) {
		e.RegisterFunc(iri, func(at store.StoreView, args []rdf.Term) (rdf.Term, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("%s takes 2 arguments", iri)
			}
			a, err := arm(at, args[0])
			if err != nil {
				return nil, err
			}
			b, err := arm(at, args[1])
			if err != nil {
				return nil, err
			}
			return value(a, b), nil
		})
	}
	register(grdf.FnWithin, func(a, b geom.Geometry) rdf.Term { return rdf.NewBoolean(geom.Within(a, b)) })
	register(grdf.FnIntersects, func(a, b geom.Geometry) rdf.Term { return rdf.NewBoolean(geom.Intersects(a, b)) })
	register(grdf.FnContains, func(a, b geom.Geometry) rdf.Term { return rdf.NewBoolean(geom.Contains(a, b)) })
	register(grdf.FnDistance, func(a, b geom.Geometry) rdf.Term { return rdf.NewDouble(geom.Distance(a, b)) })
	return e
}

// answer renders a query's result as sorted lines, so that two engines'
// answers compare as strings.
func answer(e *sparql.Engine, q string) string {
	res, err := e.Query(q)
	if err != nil {
		return "error: " + err.Error()
	}
	if res.Kind == sparql.Ask {
		return strconv.FormatBool(res.Bool)
	}
	lines := make([]string, len(res.Bindings()))
	for i, b := range res.Bindings() {
		var sb strings.Builder
		for _, v := range res.Vars {
			if t, ok := b[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\t')
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// spatialShapes are the query shapes of the issue; %[1]s is the constant, %[2]s
// the radius. probes says whether the planner may seed the join from the
// index — the rule of internal/sparql/probe.go, checked against Explain.
var spatialShapes = []struct {
	name, q string
	probes  bool
}{
	{"distance<", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, true},
	{"distance<=", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) <= %[2]s) }`, true},
	{"distance-swapped", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(%[1]s, ?s) < %[2]s) }`, true},
	{"bound>=distance", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(%[2]s >= grdf:distance(?s, %[1]s)) }`, true},
	{"within", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:within(?s, %[1]s)) }`, true},
	{"within-swapped", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:within(%[1]s, ?s)) }`, true},
	{"intersects", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersects(?s, %[1]s)) }`, true},
	{"intersects-swapped", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersects(%[1]s, ?s)) }`, true},
	{"contains", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:contains(?s, %[1]s)) }`, true},
	{"contains-swapped", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:contains(%[1]s, ?s)) }`, true},
	{"conjunction", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) < %[2]s && !grdf:within(?s, %[1]s)) }`, true},
	{"two-probes-one-variable", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) < %[2]s && grdf:distance(%[1]s, ?s) <= %[2]s) }`, true},
	{"two-probes-two-variables", `SELECT ?s ?e WHERE { ?s grdf:boundedBy ?e . FILTER(grdf:distance(?s, %[1]s) <= %[2]s) FILTER(grdf:distance(?e, %[1]s) < %[2]s) }`, true},
	{"every-typed-term", `SELECT ?s ?c WHERE { ?s a ?c . FILTER(grdf:distance(?s, %[1]s) <= %[2]s) }`, true},
	{"geometry-node-rows", `SELECT ?s ?e WHERE { ?s grdf:boundedBy ?e . FILTER(grdf:intersects(?e, %[1]s)) }`, true},
	{"two-bgps", `SELECT ?s ?n WHERE { ?s a app:ChemSite . OPTIONAL { ?s app:hasSiteName ?n } ?s grdf:boundedBy ?e . FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, true},
	{"bound-inside-optional", `SELECT ?t ?s WHERE { ?t a app:HydroStream . OPTIONAL { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) < %[2]s) } }`, true},
	{"ask", `ASK { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, true},
	{"joins-rows-after-optional", `SELECT ?s ?e WHERE { ?s a app:ChemSite . OPTIONAL { ?s app:hasSiteName ?n } ?s grdf:boundedBy ?e . FILTER(grdf:distance(?e, %[1]s) < %[2]s) }`, false},
	{"joins-rows-after-union", `SELECT ?s ?e WHERE { { ?s a app:ChemSite } UNION { ?s a app:HydroStream } ?s grdf:boundedBy ?e . FILTER(grdf:intersects(?e, %[1]s)) }`, false},
	{"joins-row-inside-optional", `SELECT ?s ?e WHERE { ?s a app:ChemSite . OPTIONAL { ?s grdf:boundedBy ?e . FILTER(grdf:distance(?e, %[1]s) < %[2]s) } }`, false},
	{"filter-in-optional", `SELECT ?s ?e WHERE { ?s a app:ChemSite . OPTIONAL { ?s grdf:boundedBy ?e . FILTER(grdf:intersects(?s, %[1]s)) } }`, false},
	{"bound-only-by-optional", `SELECT ?t ?s WHERE { ?t a app:HydroStream . OPTIONAL { ?s a app:ChemSite } FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, false},
	{"bound-only-by-union", `SELECT ?s WHERE { { ?s a app:ChemSite } UNION { ?s a app:HydroStream } FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, false},
	{"bound-by-values", `SELECT ?s WHERE { VALUES ?s { %[1]s } ?s a ?c . FILTER(grdf:distance(?s, %[1]s) < %[2]s) }`, false},
	{"bound-by-path", `SELECT ?s WHERE { ?s app:hasChemicalInfo/app:chemical ?c . FILTER(grdf:intersects(?s, %[1]s)) }`, false},
	{"var-var", `SELECT ?s ?t WHERE { ?s a app:ChemSite . ?t a app:HydroStream . FILTER(grdf:distance(?s, ?t) < %[2]s) }`, false},
	{"or", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersects(?s, %[1]s) || grdf:distance(?s, %[1]s) < %[2]s) }`, false},
	{"not", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(!grdf:intersects(?s, %[1]s)) }`, false},
	{"distance>", `SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %[1]s) > %[2]s) }`, false},
}

// roleClerk may read site names and nothing that carries a geometry.
var roleClerk = rdf.IRI(seconto.NS + "Clerk")

// oddities adds to data the features the issue lists as counter-example
// material and returns the constants worth asking about.
func oddities(t *testing.T, data *store.Store, sc *datagen.Scenario) []rdf.Term {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	site := func(name string) rdf.IRI {
		iri := rdf.IRI(rdf.AppNS + "odd_" + name)
		data.AddAll(grdf.NewFeature(nil, iri, datagen.ChemSite))
		return iri
	}
	ring := func(x, y, w float64) geom.LinearRing {
		r, err := geom.NewLinearRing([]geom.Coord{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + w}, {X: x, Y: y + w}, {X: x, Y: y}})
		must(err)
		return r
	}
	stream := sc.Hydrology.Streams[0]
	v := stream.Geometry.Coords[len(stream.Geometry.Coords)/2]
	reg := datagen.Region

	// No geometry at all.
	data.Add(rdf.T(site("bare"), datagen.HasSiteName, rdf.NewString("Bare")))
	// Several geometry properties, far apart: which one a role's answers are
	// about depends on which it may read.
	multi := site("multi")
	_, err := grdf.SetGeometry(data, multi, geom.NewPolygon(ring(v.X+100, v.Y+100, 300)), "")
	must(err)
	_, err = grdf.SetEnvelope(data, multi, geom.EnvelopeOf(geom.Coord{X: reg.MinX, Y: reg.MinY}, geom.Coord{X: reg.MinX + 50, Y: reg.MinY + 50}), "")
	must(err)
	_, err = grdf.SetEnvelope(data, multi, geom.EnvelopeOf(geom.Coord{X: reg.MaxX, Y: reg.MaxY}, geom.Coord{X: reg.MaxX + 50, Y: reg.MaxY + 50}), "")
	must(err)
	// One geometry node under two features.
	node, _ := data.FirstObject(sc.Chemical.Sites[0].IRI, grdf.BoundedBy)
	data.Add(rdf.T(site("sharing"), grdf.BoundedBy, node))
	// PR 17's cyclic geometry node: a part of itself.
	cyc := rdf.NewBlankNode()
	data.AddAll([]rdf.Triple{
		rdf.T(site("cyclic"), grdf.HasGeometry, cyc),
		rdf.T(cyc, rdf.RDFType, grdf.ComplexGeometry), rdf.T(cyc, grdf.GeometryMember, cyc),
	})
	// A hole outside its polygon's exterior ring: Distance measures to its
	// segments, Envelope does not cover them.
	_, err = grdf.SetGeometry(data, site("strayhole"),
		geom.NewPolygon(ring(reg.MaxX+9e4, reg.MaxY+9e4, 100), ring(v.X-50, v.Y-50, 20)), "")
	must(err)
	// An empty geometry.
	null := rdf.NewBlankNode()
	data.AddAll([]rdf.Triple{rdf.T(site("null"), grdf.BoundedBy, null), rdf.T(null, rdf.RDFType, grdf.Null)})
	// A point on the stream, and a multipoint beside it.
	_, err = grdf.SetGeometry(data, site("onstream"), geom.Point{C: v}, "")
	must(err)
	_, err = grdf.SetGeometry(data, site("scatter"), geom.MultiPoint{Points: []geom.Point{{C: geom.Coord{X: v.X + 10, Y: v.Y}}, {C: geom.Coord{X: v.X, Y: v.Y + 4000}}}}, "")
	must(err)

	return []rdf.Term{stream.IRI, sc.Chemical.Sites[1].IRI, multi, node, rdf.IRI(rdf.AppNS + "odd_bare"),
		rdf.IRI(rdf.AppNS + "odd_null"), rdf.IRI(rdf.AppNS + "nowhere")}
}

func TestSpatialIndexEqualsScan(t *testing.T) {
	for i, sites := range []int{5, 16, 40} {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: int64(60 + i), Sites: sites, Trunks: 1 + i})
		constants := oddities(t, sc.Merged, sc)
		policies := &seconto.Set{Rules: append(append([]seconto.Rule{}, sc.Policies.Rules...), seconto.Rule{
			ID: seconto.NS + "ClerkNames", Subject: roleClerk, Action: seconto.ActionView,
			Resource: datagen.ChemSite, Permit: true, Properties: []rdf.IRI{datagen.HasSiteName},
		})}
		e := New(policies, sc.Merged, Options{Reasoner: NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())})

		// A radius that is some site's exact distance: < and <= must part there.
		exact := geom.Distance(sc.Chemical.Sites[2].Bounds, sc.Hydrology.Streams[0].Geometry)
		// "-1" parses as a negation, not a constant, and is not probed; the
		// typed literal is.
		const minusOne = "-1"
		radii := []string{"5280", "0", minusOne, `"-1"^^<http://www.w3.org/2001/XMLSchema#double>`, "1e7",
			strconv.FormatFloat(exact, 'g', -1, 64)}

		roles := append(append([]rdf.IRI{}, scenarioRoles...), roleClerk, rdf.IRI(seconto.NS+"Nobody"))
		probed := 0
		for _, role := range roles {
			view := e.View(role, seconto.ActionView)
			probe, scan := grdf.NewEngine(view), plainEngine(view, scanArm)
			unplanned := grdf.NewEngine(view).SetPlanning(false)
			for _, sh := range spatialShapes {
				for ki, k := range constants {
					rs := radii
					if !strings.Contains(sh.q, "%[2]s") || ki > 2 || (sites > 10 && ki > 0) {
						rs = radii[:1]
					}
					for _, r := range rs {
						q := fmt.Sprintf(sh.q, k, r)
						want := answer(scan, q)
						if got := answer(probe, q); got != want {
							t.Fatalf("%d sites, %s, %s:\n%s\nprobe+refine:\n%s\nscan:\n%s", sites, role.LocalName(), sh.name, q, got, want)
						}
						if got := answer(unplanned, q); ki == 0 && got != want {
							t.Fatalf("%d sites, %s, %s, planning off:\n%s\nprobe+refine:\n%s\nscan:\n%s", sites, role.LocalName(), sh.name, q, got, want)
						}
						plan, err := probe.Explain(q)
						if err != nil {
							t.Fatal(err)
						}
						probes := sh.probes && !(r == minusOne && strings.Contains(sh.q, "%[2]s"))
						if fired := strings.Contains(plan, "spatial probe:"); fired != probes {
							t.Fatalf("%s: probe fired = %v, want %v\n%s\n%s", sh.name, fired, probes, q, plan)
						}
						if sh.probes && want != "" && want != "false" {
							probed++
						}
					}
				}
			}
		}
		if probed == 0 {
			t.Errorf("%d sites: no probed query had an answer; the comparison is vacuous", sites)
		}
	}
}

// TestProbeReadsNoMoreThanTheScan: the probe is a short cut or it is nothing.
// For every shape — the ones where a BGP binding the probed variable comes
// after rows already exist above all — the engine with probers scans and
// produces no more join rows than the same engine without them, whatever the
// radius: a seeded join never multiplies incoming rows by candidates. At 300
// sites the candidates of a mile are fewer than any scan, so this is also
// where the answers of joins that do start from them are compared.
func TestProbeReadsNoMoreThanTheScan(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 71, Sites: 300, Trunks: 2})
	work := func(e *sparql.Engine, q string) (rows int64) {
		e.SetStatsSink(func(st sparql.EvalStats) { rows = st.RowsScanned + st.RowsOut })
		if _, err := e.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return rows
	}
	probe, memo, scan := grdf.NewEngine(sc.Merged), plainEngine(sc.Merged, memoArm), plainEngine(sc.Merged, scanArm)
	seeded := 0
	for _, sh := range spatialShapes {
		for _, r := range []string{"0", "5280", "1e7"} {
			q := fmt.Sprintf(sh.q, sc.Hydrology.Streams[0].IRI, r)
			with, without := work(probe, q), work(memo, q)
			if got, want := answer(probe, q), answer(scan, q); got != want {
				t.Errorf("%s, r=%s:\n%s\nprobe+refine:\n%s\nscan:\n%s", sh.name, r, q, got, want)
			}
			if with > without {
				t.Errorf("%s, r=%s: %d join rows with the probe, %d without\n%s", sh.name, r, with, without, q)
			}
			if with < without {
				seeded++
			}
		}
	}
	if seeded == 0 {
		t.Error("no probe saved any work; the comparison is vacuous")
	}
}

// indexDump lists what ix, a spatial index of at, holds, by term: every ID of
// at's dictionary is asked for, so an entry left behind for a term the version
// no longer mentions shows.
func indexDump(at store.StoreView, ix *grdf.SpatialIndex) string {
	var lines []string
	for id := store.ID(1); int(id) <= at.DictView().Len(); id++ {
		if g, ok := ix.Geometry(id); ok {
			lines = append(lines, fmt.Sprintf("%s\t%#v", at.TermOf(id), g))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestClerkSeesNoGeometry: a role permitted app:hasSiteName but not
// grdf:boundedBy gets no rows from a proximity question, no candidates in its
// plan, and an index with nothing in it — the probe tells it nothing the
// view does not.
func TestClerkSeesNoGeometry(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	policies := &seconto.Set{Rules: append(append([]seconto.Rule{}, sc.Policies.Rules...), seconto.Rule{
		ID: seconto.NS + "ClerkNames", Subject: roleClerk, Action: seconto.ActionView,
		Resource: datagen.ChemSite, Permit: true, Properties: []rdf.IRI{datagen.HasSiteName},
	})}
	e := New(policies, sc.Merged, Options{Reasoner: NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())})
	q := fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < 1e9) }`, sc.Hydrology.Streams[0].IRI)

	res, err := e.Query(roleClerk, seconto.ActionView, q)
	if err != nil || len(res.Bindings()) != 0 {
		t.Errorf("clerk's proximity query: %d rows, err %v; want none", len(res.Bindings()), err)
	}
	if res, err := e.Query(roleClerk, seconto.ActionView, `SELECT ?s WHERE { ?s a app:ChemSite }`); err != nil || len(res.Bindings()) != len(sc.Chemical.Sites) {
		t.Fatalf("clerk should see every site's type: %v, %v", res, err)
	}
	plan, err := e.ExplainQuery(context.Background(), roleClerk, seconto.ActionView, q)
	if err != nil || !strings.Contains(plan, "spatial probe: 0 candidates") {
		t.Errorf("clerk's plan = %q, %v; want a probe with 0 candidates", plan, err)
	}
	view := e.View(roleClerk, seconto.ActionView).View()
	if dump := indexDump(view, grdf.IndexOf(view)); dump != "" {
		t.Errorf("clerk's index is not empty:\n%s", dump)
	}
	// The same question from a role that may read extents has an answer.
	if res, err := e.Query(datagen.RoleMainRepair, seconto.ActionView, q); err != nil || len(res.Bindings()) != len(sc.Chemical.Sites) {
		t.Errorf("main repair's proximity query: %v, %v; want every site", res, err)
	}
}

// TestServerExplainsTheProbe: explain=1 and explain=analyze show the index
// probe as a step of its own, ahead of the join it seeds, and the rows are the
// engine's.
func TestServerExplainsTheProbe(t *testing.T) {
	srv, e, sc := v1TestServer(t)
	// Next to one site there are fewer terms with a geometry than there are
	// sites to scan: the join starts from them.
	query := fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < 1) }`, sc.Chemical.Sites[0].IRI)
	q := url.QueryEscape(query)
	res, err := e.Query(datagen.RoleMainRepair, seconto.ActionView, query)
	if err != nil || len(res.Bindings()) == 0 {
		t.Fatalf("the engine's answer: %v, %v; want the site itself", res, err)
	}

	_, body := doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&explain=1&q="+q)
	var plan struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil || !strings.HasPrefix(plan.Plan, "spatial probe: ") {
		t.Errorf("explain=1 = %s (%v), want the probe first", body, err)
	}

	_, body = doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&explain=analyze&q="+q)
	var ab analyzeBody
	if err := json.Unmarshal([]byte(body), &ab); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	if len(ab.Stages) != 2 || ab.Stages[0].Stage != -1 || !strings.HasPrefix(ab.Stages[0].Pattern, "spatial probe: ") {
		t.Fatalf("stages = %+v, want the probe and then the one pattern", ab.Stages)
	}
	if ab.Stages[0].RowsOut != ab.Stages[1].RowsIn || ab.Solutions != len(res.Bindings()) {
		t.Errorf("probe kept %d candidates, the join started from %d rows and %d solutions came out; want %d sites",
			ab.Stages[0].RowsOut, ab.Stages[1].RowsIn, ab.Solutions, len(res.Bindings()))
	}

	// A radius that takes in everything with a geometry — more terms than
	// there are sites to scan — is answered without the candidates, and says so.
	wide := url.QueryEscape(strings.Replace(query, "< 1)", "< 1e9)", 1))
	_, body = doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&explain=analyze&q="+wide)
	ab = analyzeBody{}
	if err := json.Unmarshal([]byte(body), &ab); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	if len(ab.Stages) != 2 || !strings.Contains(ab.Stages[0].Pattern, "not used") || ab.Stages[1].RowsIn != 1 || ab.Solutions != len(sc.Chemical.Sites) {
		t.Errorf("wide radius: stages = %+v, %d solutions; want an unused probe, a join from one row, %d sites", ab.Stages, ab.Solutions, len(sc.Chemical.Sites))
	}

	_, body = doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&q="+q)
	var got struct {
		Results []map[string]string `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	if len(got.Results) != len(res.Bindings()) {
		t.Errorf("served %d rows, engine %d", len(got.Results), len(res.Bindings()))
	}
}

// TestWriteResultIsTheJSONItWas: the hand-written SELECT body decodes to what
// encoding/json made of the same result — every bound variable under its
// name, unbound ones absent, any string a literal can hold — across a flush
// of the buffer.
func TestWriteResultIsTheJSONItWas(t *testing.T) {
	nasty := []string{"plain", `quo"te and back\slash`, "line\nbreak\ttab\x00nul\x1f", "héllo ☃ \u2028", "bad \xff utf8 \xc3", "<tag>&amp;"}
	label, num := rdf.IRI("http://e/label"), rdf.IRI("http://e/n")
	st := store.New()
	for i := 0; i < 4000; i++ {
		site := rdf.IRI(fmt.Sprintf("http://e/site%d", i))
		st.Add(rdf.T(site, label, rdf.NewString(nasty[i%len(nasty)])))
		if i%3 == 0 {
			st.Add(rdf.T(site, num, rdf.NewInteger(int64(i))))
		}
	}
	eng := sparql.NewEngine(st)
	res, err := eng.Query(`SELECT ?s ?odd ?n WHERE { ?s <http://e/label> ?odd OPTIONAL { ?s <http://e/n> ?n } }`)
	if err != nil {
		t.Fatal(err)
	}
	// No query can name a variable this way; a result can carry the name.
	res.Vars[1] = "odd\"name"
	rec := httptest.NewRecorder()
	(&Server{}).writeResult(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), res)
	var got struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results []map[string]string `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !reflect.DeepEqual(got.Head.Vars, []string{"s", "odd\"name", "n"}) {
		t.Errorf("content type %q, vars %q", ct, got.Head.Vars)
	}
	rows := res.Bindings()
	if len(got.Results) != len(rows) || len(rows) != 4000 {
		t.Fatalf("%d rows of %d, want 4000", len(got.Results), len(rows))
	}
	unbound := 0
	for i, b := range rows {
		want := map[string]string{}
		for v, term := range b {
			want[string(v)] = strings.ToValidUTF8(term.String(), "\ufffd")
		}
		if _, ok := want["n"]; !ok {
			unbound++
		}
		if !reflect.DeepEqual(got.Results[i], want) {
			t.Fatalf("row %d = %q, want %q", i, got.Results[i], want)
		}
	}
	if unbound != 4000-1334 {
		t.Errorf("%d rows leave ?n unbound, want %d", unbound, 4000-1334)
	}
	// SELECT ?s ?s: the head lists what was asked, a row holds the key once.
	one := store.New()
	one.Add(rdf.T(rdf.IRI("http://e/a"), num, rdf.NewInteger(1)))
	res, err = sparql.NewEngine(one).Query(`SELECT ?s ?n ?s WHERE { ?s <http://e/n> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	(&Server{}).writeResult(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), res)
	if body := rec.Body.String(); body != `{"head":{"vars":["s","n","s"]},"results":[{"s":"<http://e/a>","n":"\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"}]}`+"\n" {
		t.Errorf("repeated variable = %s", body)
	}
	// No rows, no variables: still the same shape.
	rec = httptest.NewRecorder()
	(&Server{}).writeResult(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), &sparql.Result{Kind: sparql.Select})
	if body := rec.Body.String(); body != `{"head":{"vars":[]},"results":[]}`+"\n" {
		t.Errorf("empty result = %q", body)
	}
}

// BenchmarkSpatialQuery is the bench harness's spatial op — sites within a
// mile of one stream — three ways: scan decodes both geometries from triples
// on every row (the functions before the index), memo looks them up in the
// version's index but still tests every row, probe seeds the join from the
// index and tests what it leaves (what the server runs). 3,000 sites is the
// harness's L dataset; 45,000 is where a search structure over the boxes
// would have to pay for itself.
func BenchmarkSpatialQuery(b *testing.B) {
	for _, sites := range []int{3000, 45000} {
		var once sync.Once
		var sc *datagen.Scenario
		arms := []struct {
			name   string
			engine func(st *store.Store) *sparql.Engine
		}{
			{"scan", func(st *store.Store) *sparql.Engine { return plainEngine(st, scanArm) }},
			{"memo", func(st *store.Store) *sparql.Engine { return plainEngine(st, memoArm) }},
			{"probe", grdf.NewEngine},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("%s/sites=%d", arm.name, sites), func(b *testing.B) {
				once.Do(func() { sc = datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: sites}) })
				e := arm.engine(sc.Merged)
				q, err := sparql.ParseQuery(fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < 5280) }`,
					sc.Hydrology.Streams[0].IRI), nil)
				if err != nil {
					b.Fatal(err)
				}
				// The index is built by the first question asked, not per query.
				if _, err := e.Eval(q); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				rows := 0
				for i := 0; i < b.N; i++ {
					res, err := e.Eval(q)
					if err != nil {
						b.Fatal(err)
					}
					rows = len(res.Bindings())
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}
