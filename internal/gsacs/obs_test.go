package gsacs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

// metricsEngine builds a scenario engine with an observability registry
// attached, mirroring how cmd/gsacs-server wires it.
func metricsEngine(t *testing.T) (*Engine, *obs.Registry) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	reg := obs.NewRegistry()
	e := New(sc.Policies, sc.Merged, Options{Metrics: reg})
	return e, reg
}

func TestQueryCacheStaleInvalidationStats(t *testing.T) {
	e, reg := metricsEngine(t)
	c := e.Cache()
	e.View(datagen.RoleHazmat, seconto.ActionView) // cold miss
	e.View(datagen.RoleHazmat, seconto.ActionView) // hit
	// Generation moved: the lookup must classify the miss as a stale
	// invalidation, not a cold miss.
	e.Data().Add(rdf.T(datagen.ChemSite, rdf.RDFSLabel, rdf.NewString("chemical site")))
	e.View(datagen.RoleHazmat, seconto.ActionView)
	// Cold miss of another slot.
	e.View(datagen.RoleMainRepair, seconto.ActionView)

	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 3 || st.StaleInvalidations != 1 {
		t.Errorf("snapshot = %+v", st)
	}
	if st.Rebuilds != 2 || st.Patches != 1 {
		t.Errorf("work accounting = %+v", st)
	}
	if st.Entries != 2 || st.Slots != 3 {
		t.Errorf("occupancy = %+v", st)
	}

	// /metrics reads the same words Snapshot does.
	for name, want := range map[string]float64{
		"grdf_cache_hits_total":                1,
		"grdf_cache_misses_total":              3,
		"grdf_cache_stale_invalidations_total": 1,
		"grdf_cache_patches_total":             1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "grdf_cache_entries 2") {
		t.Errorf("entries gauge missing:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "grdf_cache_evictions_total") {
		t.Error("a cache that cannot evict still exports an eviction counter")
	}
}

func TestEngineDecisionMetrics(t *testing.T) {
	e, reg := metricsEngine(t)
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	site := sc.Chemical.Sites[0].IRI

	allowed := e.Decide(datagen.RoleHazmat, seconto.ActionView, site)
	if !allowed.Allowed {
		t.Fatal("expected hazmat access")
	}
	e.Decide(datagen.RoleMainRepair, seconto.ActionDelete, site) // no delete policy

	if got := reg.Counter("grdf_decisions_total", "", "outcome", "allowed").Value(); got != 1 {
		t.Errorf("allowed = %v", got)
	}
	if got := reg.Counter("grdf_decisions_total", "", "outcome", "denied").Value(); got != 1 {
		t.Errorf("denied = %v", got)
	}
	if got := reg.Histogram("grdf_decision_duration_seconds", "", nil,
		"role", "Hazmat").Count(); got != 1 {
		t.Errorf("per-role decision observations = %v", got)
	}

	// View twice: one cache miss then one hit, visible through the registry.
	e.View(datagen.RoleHazmat, seconto.ActionView)
	e.View(datagen.RoleHazmat, seconto.ActionView)
	if got := reg.Counter("grdf_cache_hits_total", "").Value(); got != 1 {
		t.Errorf("cache hits = %v", got)
	}
	if got := reg.Counter("grdf_cache_misses_total", "").Value(); got != 1 {
		t.Errorf("cache misses = %v", got)
	}

	// A query through the server records both SPARQL phases, and what it
	// returned is booked under its fingerprint on /v1/queries.
	srv := httptest.NewServer(NewServer(e, nil, WithWorkload(workload.New(workload.Config{}))))
	defer srv.Close()
	q := "SELECT ?s WHERE { ?s a <" + string(datagen.ChemSite) + "> }"
	if resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q="+url.QueryEscape(q)); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}
	for _, phase := range []string{"grdf_sparql_parse_duration_seconds", "grdf_sparql_eval_duration_seconds"} {
		if got := reg.Histogram(phase, "", nil).Count(); got != 1 {
			t.Errorf("%s observations = %v, want 1", phase, got)
		}
	}
	qb := fetchQueries(t, srv, "/v1/queries")
	if len(qb.Queries) != 1 {
		t.Fatalf("/v1/queries = %+v, want the one shape", qb)
	}
	if got := qb.Queries[0]; got.Kind != "SELECT" || got.Count != 1 || got.Errors != 0 || got.RowsOut == 0 || got.RowsScan == 0 {
		t.Errorf("booked shape %+v, want one SELECT that returned rows", got)
	}

	// The role is the caller's string: one no policy names is decided and
	// counted, but must not mint a label value.
	denied := reg.Counter("grdf_decisions_total", "", "outcome", "denied")
	before := denied.Value()
	e.Decide(rdf.IRI(seconto.NS+"Nobody"), seconto.ActionView, site)
	if got := denied.Value() - before; got != 1 {
		t.Errorf("unknown role's decision moved denied by %v", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `role="Nobody"`) {
		t.Error("an unknown role got its own decision-latency series")
	}
}

// TestViewPatchObservability: the three outcomes of a view lookup — hit,
// patch, rebuild — are told apart in every place that reports on the cache:
// CacheStats on /healthz, the gsacs.view span's counters, and the
// grdf_cache_patches_total counter. Stats() keeps counting a patch as a miss.
// The export's own outcome — document rendered or served from memory — is on
// the gsacs.export span and in the documents counters.
func TestViewPatchObservability(t *testing.T) {
	e, reg := metricsEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithTracer(obs.NewTracer(64))))
	defer srv.Close()
	site := e.Data().SubjectsOfType(datagen.ChemSite)[0]
	name, _ := e.Data().FirstObject(site, datagen.HasSiteName)

	var bodyLen int
	viewSpan := func(document string) map[string]int64 {
		t.Helper()
		resp, body := doReq(t, srv, http.MethodGet, "/v1/view?role=Hazmat")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/view = %d %s", resp.StatusCode, body)
		}
		bodyLen = len(body)
		tree := fetchTrace(t, srv, resp.Header.Get("X-Trace-Id")).Tree
		if exports := findSpans(tree, "gsacs.export"); len(exports) != 1 || exports[0].Attrs["document"] != document {
			t.Errorf("gsacs.export spans %+v, want one with document=%s", exports, document)
		}
		views := findSpans(tree, "gsacs.view")
		if len(views) != 1 {
			t.Fatalf("%d gsacs.view spans, want 1", len(views))
		}
		return views[0].Counters
	}

	// Cold: a miss answered by a rebuild — no patch counters on the span.
	if c := viewSpan("rendered"); c["cache_miss"] != 1 || c["patched_subjects"] != 0 || c["patched_triples"] != 0 {
		t.Errorf("cold view span counters = %v", c)
	}
	// One rename, then a read: a miss answered by a patch that re-judged two
	// resources (the site, and its extent node, which is typed and so governed
	// in its own right) and moved two triples (old name out, new name in).
	if ok, err := e.Data().Replace(rdf.T(site, datagen.HasSiteName, name),
		rdf.T(site, datagen.HasSiteName, rdf.NewString("Renamed Plant"))); !ok || err != nil {
		t.Fatalf("rename: %v %v", ok, err)
	}
	if c := viewSpan("rendered"); c["cache_miss"] != 1 || c["patched_subjects"] != 2 || c["patched_triples"] != 2 {
		t.Errorf("patched view span counters = %v", c)
	}
	if c := viewSpan("hit"); c["cache_hit"] != 1 {
		t.Errorf("warm view span counters = %v", c)
	}

	_, raw := doReq(t, srv, http.MethodGet, "/healthz")
	var health struct {
		Cache CacheStats `json:"cache"`
	}
	if err := json.Unmarshal([]byte(raw), &health); err != nil {
		t.Fatalf("healthz: %v (%s)", err, raw)
	}
	want := CacheStats{Hits: 1, Misses: 2, StaleInvalidations: 1, Patches: 1, Rebuilds: 1, Entries: 1, Slots: 3,
		Documents: 2, DocumentBytes: int64(bodyLen)}
	if health.Cache != want {
		t.Errorf("/healthz cache = %+v, want %+v", health.Cache, want)
	}
	for _, field := range []string{`"patches":1`, `"rebuilds":1`, `"stale_invalidations":1`} {
		if !strings.Contains(raw, field) {
			t.Errorf("/healthz lacks %s: %s", field, raw)
		}
	}
	if got := reg.Counter("grdf_cache_patches_total", "").Value(); got != 1 {
		t.Errorf("grdf_cache_patches_total = %v, want 1", got)
	}
	if hits, misses := e.Cache().Stats(); hits != 1 || misses != 2 {
		t.Errorf("Stats() = %d hits, %d misses; a patch must count as a miss", hits, misses)
	}
}
