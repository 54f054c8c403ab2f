package gsacs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/obs/workload"
)

// booksServer is a server keeping every book a request is booked into: the
// route histogram and status counters on its registry, the SLO window, the
// workload table and the audit trail, behind a query pool of one slot that
// neither queues nor adapts, so the test decides when a request is shed.
func booksServer(t *testing.T) (*httptest.Server, *admission.Controller, *obs.Registry) {
	t.Helper()
	e, _ := scenarioEngine(t)
	e.EnableAudit(64)
	reg := obs.NewRegistry()
	ctrl := admission.NewController(admission.Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		MaxQueue:    admission.NoQueue,
		AdjustEvery: time.Hour,
	})
	srv := httptest.NewServer(NewServer(e, nil,
		WithMetrics(reg),
		WithWorkload(workload.New(workload.Config{Capacity: 64, Registry: reg})),
		WithSLO(obs.NewSLOEngine(obs.SLOConfig{LatencyTarget: 5 * time.Second})),
		WithAdmission(AdmissionConfig{Controller: ctrl})))
	t.Cleanup(srv.Close)
	return srv, ctrl, reg
}

// query sends q as Hazmat and checks the status it is answered with.
func query(t *testing.T, srv *httptest.Server, q string, want int) {
	t.Helper()
	if resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q="+url.QueryEscape(q)); resp.StatusCode != want {
		t.Fatalf("%s = %d, want %d: %s", q, resp.StatusCode, want, body)
	}
}

// sloRoute is the fast window of one route on /v1/slo.
func sloRoute(t *testing.T, srv *httptest.Server, route string) obs.WindowStats {
	t.Helper()
	for _, rt := range fetchSLO(t, srv, 1).Routes {
		if rt.Route == route {
			return rt.Fast
		}
	}
	t.Fatalf("/v1/slo has no route %s", route)
	return obs.WindowStats{}
}

// TestBooksAgree: /v1/queries, /v1/slo and grdf_http_requests_total describe
// the same /v1/query requests — two shapes that answer, one that parses but
// fails, one shed — because all three are booked from the one record the
// middleware closes; so does /v1/audit, for every route that takes a role. On a single-shape run the fingerprint's latency sketch
// and the route's SLO sketch hold the same samples, so their quantiles are
// equal, not merely close.
func TestBooksAgree(t *testing.T) {
	const (
		shapeA = `SELECT ?s WHERE { ?s a app:ChemSite }`
		shapeB = `SELECT ?n WHERE { ?s app:hasChemName ?n }`
		// A role view is no dataset: GRAPH parses, then fails to evaluate.
		failing = `SELECT ?s WHERE { GRAPH <http://example.org/g> { ?s ?p ?o } }`
	)
	srv, ctrl, reg := booksServer(t)
	for i := 0; i < 5; i++ {
		query(t, srv, shapeA, http.StatusOK)
	}
	for i := 0; i < 3; i++ {
		query(t, srv, shapeB, http.StatusOK)
	}
	for i := 0; i < 2; i++ {
		query(t, srv, failing, http.StatusBadRequest)
	}
	release, err := ctrl.Admit(context.Background(), admission.ClassQuery, admission.Normal)
	if err != nil {
		t.Fatalf("holding the query slot: %v", err)
	}
	query(t, srv, shapeA, http.StatusTooManyRequests)
	release()
	const requests = 5 + 3 + 2 + 1

	qb := fetchQueries(t, srv, "/v1/queries")
	var booked, shed, errs uint64
	for _, q := range qb.Queries {
		booked += q.Count + q.Shed
		shed += q.Shed
		errs += q.Errors
	}
	if len(qb.Queries) != 3 || booked != requests || shed != 1 || errs != 2 {
		t.Errorf("/v1/queries books %d requests (%d shed, %d errors) in %d shapes, want %d (1, 2) in 3: %+v",
			booked, shed, errs, len(qb.Queries), requests, qb.Queries)
	}
	if got := sloRoute(t, srv, "/v1/query").Count; got != requests {
		t.Errorf("/v1/slo counts %d /v1/query requests, want %d", got, requests)
	}
	var counted float64
	for _, m := range reg.Snapshot() {
		if m.Name == "grdf_http_requests_total" && m.Labels["route"] == "/v1/query" {
			counted += m.Value
		}
	}
	if counted != requests {
		t.Errorf("grdf_http_requests_total{route=\"/v1/query\"} sums to %v, want %d", counted, requests)
	}

	// One request of each other route that takes a role — a view (HEAD: no
	// body for the client to read before the request is booked), a resource
	// read, a write the role may not make — and one that names no role.
	for _, call := range []struct {
		method, path string
		want         int
	}{
		{http.MethodHead, "/v1/view?role=Hazmat", http.StatusOK},
		{http.MethodGet, "/v1/resource?role=Hazmat&iri=" + url.QueryEscape("http://example.org/nothing"), http.StatusForbidden},
		{http.MethodGet, "/v1/view", http.StatusBadRequest},
	} {
		if resp, body := doReq(t, srv, call.method, call.path); resp.StatusCode != call.want {
			t.Fatalf("%s %s = %d, want %d: %s", call.method, call.path, resp.StatusCode, call.want, body)
		}
	}
	if resp, body := postMutate(t, srv, "Hazmat", `[{"op":"insert","triples":"<http://example.org/s> <http://example.org/p> \"o\" ."}]`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("mutate = %d: %s", resp.StatusCode, body)
	}
	resp, body := doReq(t, srv, http.MethodGet, "/v1/audit")
	var audit struct{ Entries []AuditEntry }
	if err := json.Unmarshal([]byte(body), &audit); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/audit = %d %v: %s", resp.StatusCode, err, body)
	}
	entries, sheds := map[string]float64{}, 0
	for _, en := range audit.Entries {
		entries[en.Route]++
		if en.Outcome == string(obs.OutcomeShed) {
			if sheds++; en.Action != "" || en.Route != "/v1/query" {
				t.Errorf("shed entry %+v carries a decision", en)
			}
		}
	}
	if sheds != 1 {
		t.Errorf("/v1/audit holds %d shed entries, want 1", sheds)
	}
	for _, route := range []string{"/v1/view", "/v1/resource", "/v1/query", "/v1/mutate"} {
		var counted float64
		for _, m := range reg.Snapshot() {
			if m.Name == "grdf_http_requests_total" && m.Labels["route"] == route {
				counted += m.Value
			}
		}
		if counted == 0 || entries[route] != counted {
			t.Errorf("/v1/audit holds %v entries of %s, grdf_http_requests_total counts %v", entries[route], route, counted)
		}
	}

	// One shape alone on a fresh server: same samples, same sketch.
	srv, _, _ = booksServer(t)
	for i := 0; i < 20; i++ {
		query(t, srv, shapeA, http.StatusOK)
	}
	qb = fetchQueries(t, srv, "/v1/queries")
	route := sloRoute(t, srv, "/v1/query")
	if len(qb.Queries) != 1 {
		t.Fatalf("/v1/queries = %+v, want one shape", qb.Queries)
	}
	fp := qb.Queries[0]
	if fp.Count != route.Count || fp.P50Ms != route.P50Ms || fp.P99Ms != route.P99Ms || fp.MaxMs != route.MaxMs {
		t.Errorf("/v1/queries count %d p50 %v p99 %v max %v; /v1/slo count %d p50 %v p99 %v max %v",
			fp.Count, fp.P50Ms, fp.P99Ms, fp.MaxMs, route.Count, route.P50Ms, route.P99Ms, route.MaxMs)
	}
}

// TestShedsAreNoLatencySample: under overload a shed answers in
// microseconds. Counted as latency samples, 5,000 of them would pull the
// window's p99 far under the 20 ms the 50 admitted requests took — the
// objective would read as met exactly while it is missed. A shed counts in
// the window's total and nowhere else.
func TestShedsAreNoLatencySample(t *testing.T) {
	e, _ := scenarioEngine(t)
	ctrl := admission.NewController(admission.Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		MaxQueue:    admission.NoQueue,
		AdjustEvery: time.Hour,
	})
	slo := obs.NewSLOEngine(obs.SLOConfig{LatencyTarget: 5 * time.Second})
	s := NewServer(e, nil, WithSLO(slo), WithAdmission(AdmissionConfig{Controller: ctrl}))
	const held = 20 * time.Millisecond
	slow := s.serve(&route{pattern: "/slow", class: admission.ClassQuery,
		handler: func(*Server, http.ResponseWriter, *http.Request) { time.Sleep(held) }})
	call := func(want int) {
		t.Helper()
		w := httptest.NewRecorder()
		slow.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/slow", nil))
		if w.Code != want {
			t.Fatalf("/slow = %d, want %d", w.Code, want)
		}
	}

	release, err := ctrl.Admit(context.Background(), admission.ClassQuery, admission.Normal)
	if err != nil {
		t.Fatalf("holding the query slot: %v", err)
	}
	const sheds, admitted = 5000, 50
	for i := 0; i < sheds; i++ {
		call(http.StatusTooManyRequests)
	}
	release()
	for i := 0; i < admitted; i++ {
		call(http.StatusOK)
	}

	for _, rt := range slo.Status().Routes {
		if rt.Route != "/slow" {
			continue
		}
		if rt.Fast.Count != sheds+admitted || rt.Fast.Errors != 0 {
			t.Errorf("fast window counts %d requests, %d errors; want %d, 0", rt.Fast.Count, rt.Fast.Errors, sheds+admitted)
		}
		if heldMs := float64(held) / float64(time.Millisecond); rt.Fast.P99Ms < heldMs {
			t.Errorf("fast-window p99 %.3f ms with every admitted request held %.0f ms", rt.Fast.P99Ms, heldMs)
		}
		return
	}
	t.Fatal("no SLO window for /slow")
}
