package gsacs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

func scenarioEngine(t *testing.T) (*Engine, *datagen.Scenario) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	reasoner := NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := New(sc.Policies, sc.Merged, Options{Reasoner: reasoner})
	return e, sc
}

func TestDecideMainRepairSiteExtentOnly(t *testing.T) {
	e, sc := scenarioEngine(t)
	site := sc.Chemical.Sites[0].IRI
	acc := e.Decide(datagen.RoleMainRepair, seconto.ActionView, site)
	if !acc.Allowed || acc.Full {
		t.Fatalf("access = %+v", acc)
	}
	boundedBy := rdf.IRI(grdf.NS + "boundedBy")
	if !acc.PropertyVisible(boundedBy, e.Reasoner()) {
		t.Error("boundedBy not visible")
	}
	for _, hidden := range []rdf.IRI{datagen.HasSiteName, datagen.HasChemicalInfo, datagen.HasContactPhone} {
		if acc.PropertyVisible(hidden, e.Reasoner()) {
			t.Errorf("%s visible to main repair", hidden.LocalName())
		}
	}
}

func TestDecideMainRepairStreamsFull(t *testing.T) {
	e, sc := scenarioEngine(t)
	stream := sc.Hydrology.Streams[0].IRI
	acc := e.Decide(datagen.RoleMainRepair, seconto.ActionView, stream)
	if !acc.Allowed || !acc.Full {
		t.Fatalf("access = %+v", acc)
	}
}

func TestDecideDefaultDeny(t *testing.T) {
	e, sc := scenarioEngine(t)
	site := sc.Chemical.Sites[0].IRI
	acc := e.Decide(rdf.IRI(seconto.NS+"Nobody"), seconto.ActionView, site)
	if acc.Allowed {
		t.Errorf("unknown role allowed: %+v", acc)
	}
	// wrong action
	acc = e.Decide(datagen.RoleMainRepair, seconto.ActionModify, site)
	if acc.Allowed {
		t.Errorf("modify allowed for view-only role: %+v", acc)
	}
}

func TestDecideEmergencyFullViaReasoning(t *testing.T) {
	e, sc := scenarioEngine(t)
	// The EmergencyAll policy targets grdf:Feature; only reasoning connects
	// app:ChemSite ⊑ grdf:Feature.
	site := sc.Chemical.Sites[0].IRI
	acc := e.Decide(datagen.RoleEmergency, seconto.ActionView, site)
	if !acc.Allowed || !acc.Full {
		t.Fatalf("access = %+v", acc)
	}
	stream := sc.Hydrology.Streams[0].IRI
	acc = e.Decide(datagen.RoleEmergency, seconto.ActionView, stream)
	if !acc.Allowed || !acc.Full {
		t.Fatalf("stream access = %+v", acc)
	}
}

func TestDecideWithoutReasonerMissesSubclasses(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 4})
	e := New(sc.Policies, sc.Merged, Options{}) // nil reasoner
	site := sc.Chemical.Sites[0].IRI
	// grdf:Feature policy still matches because NewFeature asserts the
	// direct subclass edge, which nilReasoner follows one level.
	acc := e.Decide(datagen.RoleEmergency, seconto.ActionView, site)
	if !acc.Allowed {
		t.Fatalf("access = %+v", acc)
	}
}

func TestFilterResourceMainRepair(t *testing.T) {
	e, sc := scenarioEngine(t)
	site := sc.Chemical.Sites[0].IRI
	acc := e.Decide(datagen.RoleMainRepair, seconto.ActionView, site)
	triples := e.FilterResource(site, acc)
	if len(triples) == 0 {
		t.Fatal("no triples")
	}
	view := store.New()
	view.AddAll(triples)
	// extent must decode from the filtered view alone
	env, ok := grdf.EnvelopeOfFeature(view, site)
	if !ok || env.Area() == 0 {
		t.Errorf("envelope not reconstructible: %+v %t", env, ok)
	}
	// nothing else leaks
	for _, tr := range triples {
		pred := tr.Predicate.(rdf.IRI)
		switch {
		case pred == rdf.RDFType,
			strings.HasPrefix(string(pred), grdf.NS):
		default:
			t.Errorf("leaked predicate %s", pred)
		}
	}
	if view.Count(nil, datagen.HasChemName, nil) != 0 {
		t.Error("chemical names leaked to main repair")
	}
}

func TestViewHazmatSeesNamesNotCodes(t *testing.T) {
	e, _ := scenarioEngine(t)
	view := e.View(datagen.RoleHazmat, seconto.ActionView)
	if view.Count(nil, datagen.HasChemName, nil) == 0 {
		t.Error("hazmat cannot see chemical names")
	}
	if n := view.Count(nil, datagen.HasChemCode, nil); n != 0 {
		t.Errorf("hazmat sees %d chemical codes", n)
	}
	if n := view.Count(nil, datagen.HasQuantityKg, nil); n != 0 {
		t.Errorf("hazmat sees %d quantities", n)
	}
	if n := view.Count(nil, datagen.HasContactPhone, nil); n != 0 {
		t.Errorf("hazmat sees %d contacts", n)
	}
	if view.Count(nil, datagen.HasStreamName, nil) == 0 {
		t.Error("hazmat cannot see stream layer")
	}
}

func TestViewEmergencySeesEverything(t *testing.T) {
	e, sc := scenarioEngine(t)
	view := e.View(datagen.RoleEmergency, seconto.ActionView)
	for _, pred := range []rdf.IRI{
		datagen.HasChemName, datagen.HasChemCode, datagen.HasQuantityKg,
		datagen.HasContactPhone, datagen.HasSiteName, datagen.HasStreamName,
	} {
		if view.Count(nil, pred, nil) != sc.Merged.Count(nil, pred, nil) {
			t.Errorf("emergency view missing %s triples", pred.LocalName())
		}
	}
}

func TestViewMonotonicity(t *testing.T) {
	// Every triple in a role's view must exist in the source store, and the
	// main-repair view must be a subset of hazmat's site properties plus
	// hydro, which is a subset of emergency's.
	e, sc := scenarioEngine(t)
	mr := e.View(datagen.RoleMainRepair, seconto.ActionView)
	hz := e.View(datagen.RoleHazmat, seconto.ActionView)
	em := e.View(datagen.RoleEmergency, seconto.ActionView)
	for _, tr := range mr.Triples() {
		if !sc.Merged.Has(tr) {
			t.Errorf("fabricated triple %s", tr)
		}
	}
	if !(mr.Len() < hz.Len() && hz.Len() < em.Len()) {
		t.Errorf("view sizes not monotone: %d %d %d", mr.Len(), hz.Len(), em.Len())
	}
}

func TestQueryOverFilteredView(t *testing.T) {
	e, _ := scenarioEngine(t)
	q := `SELECT ?name WHERE { ?s app:hasChemName ?name }`
	res, err := e.Query(datagen.RoleMainRepair, seconto.ActionView, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) != 0 {
		t.Errorf("main repair query saw %d chemical names", len(res.Bindings()))
	}
	res, err = e.Query(datagen.RoleHazmat, seconto.ActionView, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) == 0 {
		t.Error("hazmat query saw no chemical names")
	}
}

func TestDenyOverridesAndPriority(t *testing.T) {
	data := store.New()
	res := rdf.IRI("http://e/r")
	cls := rdf.IRI("http://e/C")
	data.Add(rdf.T(res, rdf.RDFType, cls))
	data.Add(rdf.T(res, rdf.IRI("http://e/p"), rdf.NewString("v")))

	role := rdf.IRI(seconto.NS + "R")
	// equal priority: deny overrides
	set := &seconto.Set{Rules: []seconto.Rule{
		{ID: "permit", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: true},
		{ID: "deny", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: false},
	}}
	e := New(set, data, Options{})
	if acc := e.Decide(role, seconto.ActionView, res); acc.Allowed {
		t.Errorf("deny did not override: %+v", acc)
	}
	// higher-priority permit wins over lower-priority deny
	set = &seconto.Set{Rules: []seconto.Rule{
		{ID: "deny", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: false, Priority: 1},
		{ID: "permit", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: true, Priority: 5},
	}}
	e = New(set, data, Options{})
	if acc := e.Decide(role, seconto.ActionView, res); !acc.Allowed || !acc.Full {
		t.Errorf("high-priority permit lost: %+v", acc)
	}
	// property-level deny carves out of a full permit
	set = &seconto.Set{Rules: []seconto.Rule{
		{ID: "permit", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: true, Priority: 1},
		{ID: "denyP", Subject: role, Action: seconto.ActionView, Resource: cls, Permit: false,
			Properties: []rdf.IRI{rdf.IRI("http://e/p")}, Priority: 5},
	}}
	e = New(set, data, Options{})
	acc := e.Decide(role, seconto.ActionView, res)
	if !acc.Allowed || !acc.Full {
		t.Fatalf("access = %+v", acc)
	}
	if acc.PropertyVisible(rdf.IRI("http://e/p"), e.Reasoner()) {
		t.Error("denied property still visible")
	}
	if !acc.PropertyVisible(rdf.IRI("http://e/q"), e.Reasoner()) {
		t.Error("unrelated property hidden")
	}
}

func TestSpatialScopePolicy(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	// Scope: tiny box around the first site only.
	siteBounds := sc.Chemical.Sites[0].Bounds
	scope := siteBounds
	scope.MinX -= 10
	scope.MinY -= 10
	scope.MaxX += 10
	scope.MaxY += 10
	role := rdf.IRI(seconto.NS + "FieldTeam")
	set := &seconto.Set{Rules: []seconto.Rule{{
		ID: seconto.NS + "ScopedPermit", Subject: role,
		Action: seconto.ActionView, Resource: datagen.ChemSite, Permit: true,
		SpatialScope: &scope,
	}}}
	e := New(set, sc.Merged, Options{})
	if acc := e.Decide(role, seconto.ActionView, sc.Chemical.Sites[0].IRI); !acc.Allowed {
		t.Error("in-scope site denied")
	}
	denied := 0
	for _, s := range sc.Chemical.Sites[1:] {
		if acc := e.Decide(role, seconto.ActionView, s.IRI); !acc.Allowed {
			denied++
		}
	}
	if denied != len(sc.Chemical.Sites)-1 {
		t.Errorf("out-of-scope denied = %d / %d", denied, len(sc.Chemical.Sites)-1)
	}
}

// TestQueryCacheSlots: the cache is shaped by the policy set — one slot per
// (role, action) a rule names, filled on first read, emptied by Clear, and
// untouched by a role no rule names.
func TestQueryCacheSlots(t *testing.T) {
	e, _ := scenarioEngine(t)
	c := e.Cache()
	if st := c.Snapshot(); st.Slots != 3 || st.Entries != 0 {
		t.Fatalf("List 8 names three (role, View) pairs, all cold: %+v", st)
	}
	for _, role := range scenarioRoles {
		e.View(role, seconto.ActionView)
	}
	nobody := rdf.IRI(seconto.NS + "Nobody")
	if v := e.View(nobody, seconto.ActionView); v.Len() != 0 {
		t.Errorf("unknown role sees %d triples", v.Len())
	}
	// A role the set names, under an action it does not name it with.
	if v := e.View(datagen.RoleHazmat, seconto.ActionDelete); v.Len() != 0 {
		t.Errorf("Hazmat sees %d triples under Delete", v.Len())
	}
	if c.Snapshot().Entries != 3 {
		t.Errorf("Len = %d, want 3", c.Snapshot().Entries)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats = %d/%d: reads no slot answers are neither hit nor miss", hits, misses)
	}
	c.Clear()
	if c.Snapshot().Entries != 0 {
		t.Error("Clear failed")
	}
}

func TestEngineViewCachingAndInvalidation(t *testing.T) {
	e, sc := scenarioEngine(t)
	v1 := e.View(datagen.RoleHazmat, seconto.ActionView)
	v2 := e.View(datagen.RoleHazmat, seconto.ActionView)
	if v1 != v2 {
		t.Error("second View not served from cache")
	}
	hits, _ := e.Cache().Stats()
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
	// mutate data: cache must invalidate
	newSite := rdf.IRI(rdf.AppNS + "chem/siteNEW")
	sc.Merged.AddAll(append(grdf.NewFeature(nil, newSite, datagen.ChemSite),
		rdf.T(newSite, datagen.HasSiteName, rdf.NewString("Fresh Plant"))))
	v3 := e.View(datagen.RoleHazmat, seconto.ActionView)
	if v3 == v2 {
		t.Error("stale view served after mutation")
	}
	if !v3.Has(rdf.T(newSite, datagen.HasSiteName, rdf.NewString("Fresh Plant"))) {
		t.Error("new site missing from refreshed view")
	}
}

func TestOntoRepository(t *testing.T) {
	repo := NewOntoRepository()
	g, sec := grdf.Ontology(), seconto.Ontology()
	repo.Register("seconto", sec)
	repo.Register("grdf", g)
	if names := repo.Names(); len(names) != 2 || names[0] != "grdf" {
		t.Errorf("Names = %v", names)
	}
	// Graphs is in name order, whatever the order of registration: the order
	// the reasoner interns them in.
	if gs := repo.Graphs(); len(gs) != 2 || gs[0] != g || gs[1] != sec {
		t.Error("Graphs() is not grdf then seconto")
	}
}

func TestServerEndpoints(t *testing.T) {
	e, sc := scenarioEngine(t)
	repo := NewOntoRepository()
	repo.Register("grdf", grdf.Ontology())
	srv := httptest.NewServer(NewServer(e, repo))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64*1024)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz = %d %s", code, body)
	}
	if code, body := get("/v1/roles"); code != 200 || !strings.Contains(body, "MainRep") {
		t.Errorf("roles = %d %s", code, body)
	}
	if code, body := get("/v1/ontologies"); code != 200 || !strings.Contains(body, "grdf") {
		t.Errorf("ontologies = %d %s", code, body)
	}

	// main repair view: no chemical names
	code, body := get("/v1/view?role=MainRep")
	if code != 200 {
		t.Fatalf("view = %d", code)
	}
	if strings.Contains(body, "Sulfuric") {
		t.Error("chemical data leaked in main repair view")
	}
	if !strings.Contains(body, "lowerCorner") {
		t.Error("extent missing from main repair view")
	}

	// resource endpoint: denied for unknown role
	site := url.QueryEscape(string(sc.Chemical.Sites[0].IRI))
	if code, _ := get("/v1/resource?role=Nobody&iri=" + site); code != 403 {
		t.Errorf("resource for unknown role = %d", code)
	}
	if code, _ := get("/v1/resource?role=MainRep&iri=" + site); code != 200 {
		t.Errorf("resource for MainRep = %d", code)
	}
	if code, _ := get("/v1/resource?role=MainRep"); code != 400 {
		t.Errorf("resource without iri = %d", code)
	}

	// query endpoint
	code, body = get("/v1/query?role=Hazmat&q=" + urlQueryEscape(`SELECT ?n WHERE { ?s app:hasChemName ?n }`))
	if code != 200 {
		t.Fatalf("query = %d %s", code, body)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("query response not JSON: %v", err)
	}
	rows, _ := parsed["results"].([]any)
	if len(rows) == 0 {
		t.Error("hazmat query returned no rows")
	}
	if code, _ := get("/v1/query?role=Hazmat&q=NOT+SPARQL"); code != 400 {
		t.Errorf("bad query = %d", code)
	}
	if code, _ := get("/v1/view"); code != 400 {
		t.Errorf("view without role = %d", code)
	}
}

func urlQueryEscape(s string) string {
	r := strings.NewReplacer(" ", "+", "?", "%3F", "{", "%7B", "}", "%7D", "#", "%23")
	return r.Replace(s)
}

// TestConcurrentViewsAndWrites: role views and resource reads over HTTP
// while writers commit: the store stays consistent, and the audit trail books
// each read request once, whatever decisions its view build or patch made.
func TestConcurrentViewsAndWrites(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	admin := rdf.IRI(seconto.NS + "Admin")
	sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
		ID: seconto.NS + "AdminModify", Subject: admin,
		Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
	})
	e := New(sc.Policies, sc.Merged, Options{})
	e.EnableAudit(64)
	srv := NewServer(e, nil)
	site := sc.Chemical.Sites[0].IRI
	paths := []string{
		"/v1/view?role=Hazmat",
		"/v1/resource?role=" + url.QueryEscape(string(datagen.RoleMainRepair)) + "&iri=" + url.QueryEscape(string(site)),
	}

	const readers, rounds = 4, 50
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, path := range paths {
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
					if w.Code != http.StatusOK {
						t.Errorf("%s = %d", path, w.Code)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tr := rdf.T(site, datagen.HasSiteName,
					rdf.NewString(fmt.Sprintf("Name-%d-%d", w, i)))
				if err := insert(e, admin, tr); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Data().Validate(); err != nil {
		t.Errorf("store inconsistent after concurrency: %v", err)
	}
	if got, want := e.AuditStats().Recorded, uint64(readers*rounds*len(paths)); got != want {
		t.Errorf("audit trail recorded %d entries for %d requests", got, want)
	}
}
