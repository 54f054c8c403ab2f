package gsacs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/store"
)

const fedTestQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`

// TestServerFederatedQueryFailsOver is the chaos path end to end over HTTP: a
// router over a healthy replica and one forced to 100% errors. Every
// /v1/query is answered with the healthy replica's bytes, the down replica's
// breaker opens at its threshold, and from then on the router skips it.
func TestServerFederatedQueryFailsOver(t *testing.T) {
	e, sc := scenarioEngine(t)
	healthy := newReplica(t, NewServer(e, nil))
	downEngine, _ := scenarioEngine(t)
	down := federation.NewFaultySource(
		federation.NewRemoteSource("down", newReplica(t, NewServer(downEngine, nil)).URL, nil),
		federation.FaultConfig{Seed: 3, ErrorRate: 1.0})

	const threshold = 3
	fed, err := federation.New(federation.Config{
		SourceTimeout: time.Second,
		Retry:         federation.RetryConfig{MaxAttempts: 1},
		Breaker:       federation.BreakerConfig{Threshold: threshold, Cooldown: time.Minute},
	}, federation.NewRemoteSource("healthy", healthy.URL, nil), down)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.New(workload.Config{Capacity: 8})
	srv := httptest.NewServer(NewServer(New(sc.Policies, store.New(), Options{}), nil,
		WithFederator(fed), WithWorkload(wl)))
	defer srv.Close()

	path := "/v1/query?role=EmergencyResponse&q=" + url.QueryEscape(fedTestQuery)
	_, _, want := get(t, healthy.URL, path)
	if !strings.Contains(want, "chem_site") {
		t.Fatalf("the healthy replica answers no sites, the test shows nothing: %s", want)
	}
	// The down replica is first in line on every second request.
	const requests = 2*threshold + 2
	for i := range requests {
		if code, _, body := get(t, srv.URL, path); code != http.StatusOK || body != want {
			t.Fatalf("request %d: %d %s, want the healthy replica's answer", i, code, body)
		}
	}
	if st, ok := fed.BreakerState("down"); !ok || st != federation.Open {
		t.Errorf("down breaker = %v (known %v), want open", st, ok)
	}
	if n := down.Stats().Requests; n != threshold {
		t.Errorf("the down replica was asked %d times, want %d: an open breaker skips it", n, threshold)
	}
	if top := wl.TopK(2); len(top) != 1 || top[0].Count != requests || top[0].Errors != 0 {
		t.Errorf("/v1/queries books %+v, want one shape with %d answered requests", top, requests)
	}
}

// TestServerFederatedAllSourcesFailed checks the one hard-failure case:
// every source down answers 502 with the uniform error envelope.
func TestServerFederatedAllSourcesFailed(t *testing.T) {
	e, sc := scenarioEngine(t)
	down := federation.NewFaultySource(
		federation.NewRemoteSource("down", newReplica(t, NewServer(e, nil)).URL, nil),
		federation.FaultConfig{Seed: 3, ErrorRate: 1.0})
	fed, err := federation.New(federation.Config{
		Retry: federation.RetryConfig{MaxAttempts: 1},
	}, down)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(New(sc.Policies, store.New(), Options{}), nil, WithFederator(fed)))
	defer srv.Close()

	resp, body := doReq(t, srv, http.MethodGet,
		"/v1/query?role=EmergencyResponse&q="+url.QueryEscape(fedTestQuery))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d body %s, want 502", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "all_sources_failed" || env.Error == "" {
		t.Errorf("envelope = %+v, want code all_sources_failed", env)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("missing trace id on federated failure")
	}
}

// TestServerPanicRecovery registers a panicking handler on the server mux
// and verifies the middleware converts the panic into the uniform 500
// envelope, counts it, and leaves the server serving.
func TestServerPanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	e, _ := scenarioEngine(t)
	s := NewServer(e, nil, WithMetrics(reg))
	s.mux.Handle("/boom", s.serve(&route{pattern: "/boom", class: ungated,
		handler: func(*Server, http.ResponseWriter, *http.Request) { panic("kaboom") }}))
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, body := doReq(t, srv, http.MethodGet, "/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var env struct {
		Error   string `json:"error"`
		Code    string `json:"code"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %v (%q)", err, body)
	}
	if env.Code != "internal" || env.TraceID == "" {
		t.Errorf("envelope = %+v, want code internal with a trace id", env)
	}
	// The process and listener survived: a normal request still works.
	resp, _ = doReq(t, srv, http.MethodGet, "/v1/roles")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server dead after panic: /v1/roles = %d", resp.StatusCode)
	}
	// And the panic was counted.
	_, metrics := doReq(t, srv, http.MethodGet, "/metrics")
	if !strings.Contains(metrics, "grdf_http_panics_total 1") {
		t.Error("grdf_http_panics_total not incremented")
	}
}

// TestServerMaxBodyBytes verifies /v1/mutate rejects an oversized body with
// 413 and the standard envelope, while small bodies pass.
func TestServerMaxBodyBytes(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithMaxBodyBytes(256)))
	defer srv.Close()

	small := `[{"op":"insert","triples":"<http://example.org/x> <http://example.org/p> \"v\" ."}]`
	big := strings.Repeat(" ", 400) + small

	resp, body := postMutate(t, srv, "EmergencyResponse", big)
	wantEnvelope(t, resp, body, "body_too_large", http.StatusRequestEntityTooLarge)
	// A body under the cap is processed normally (403/200 depending on the
	// role's write policy — anything but 413 shows the limiter let it by).
	resp, _ = postMutate(t, srv, "EmergencyResponse", small)
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Error("small body rejected as too large")
	}
}
