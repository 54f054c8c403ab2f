package gsacs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fetchSLO polls /v1/slo until the fast window has seen at least n
// requests — the middleware records its observation in a defer, which can
// race the client's next request.
func fetchSLO(t *testing.T, srv *httptest.Server, n uint64) obs.SLOStatus {
	t.Helper()
	var st obs.SLOStatus
	for attempt := 0; attempt < 100; attempt++ {
		resp, body := doReq(t, srv, http.MethodGet, "/v1/slo")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/slo status %d body %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("bad /v1/slo JSON: %v (%s)", err, body)
		}
		if st.Fast.Count >= n {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("/v1/slo never reached %d fast-window requests: %+v", n, st)
	return st
}

// TestServerSLOEndpoint drives traffic through a WithSLO server and checks
// the windowed report: counts, quantiles, per-route blocks, verdicts, and
// the grdf_slo_* exposition on /metrics.
func TestServerSLOEndpoint(t *testing.T) {
	e, _ := scenarioEngine(t)
	slo := obs.NewSLOEngine(obs.SLOConfig{
		LatencyTarget:      5 * time.Second, // generous: CI must pass
		AvailabilityTarget: 0.5,
	})
	srv := httptest.NewServer(NewServer(e, nil,
		WithMetrics(obs.NewRegistry()), WithSLO(slo)))
	defer srv.Close()

	const reqs = 10
	for i := 0; i < reqs; i++ {
		resp, body := doReq(t, srv, http.MethodGet, "/v1/roles")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("roles status %d body %s", resp.StatusCode, body)
		}
	}
	st := fetchSLO(t, srv, reqs)
	if st.Fast.Count < reqs || st.Slow.Count < reqs {
		t.Fatalf("windows undercounted: fast=%d slow=%d", st.Fast.Count, st.Slow.Count)
	}
	if st.Fast.P50Ms < 0 || st.Fast.P99Ms < st.Fast.P50Ms {
		t.Fatalf("implausible quantiles: %+v", st.Fast)
	}
	if st.LatencyTargetMs != 5000 || st.LatencyQuantile != 0.99 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if !st.LatencyOK || !st.AvailabilityOK {
		t.Fatalf("healthy traffic must pass: %+v", st)
	}
	var haveRoute bool
	for _, rt := range st.Routes {
		if rt.Route == "/v1/roles" && rt.Fast.Count >= reqs {
			haveRoute = true
		}
	}
	if !haveRoute {
		t.Fatalf("no per-route block for /v1/roles: %+v", st.Routes)
	}

	resp, metrics := doReq(t, srv, http.MethodGet, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"grdf_slo_latency_seconds", "grdf_slo_burn_rate",
		"grdf_slo_latency_breached 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerSLOAbsentWithoutOption: no WithSLO, no /v1/slo route.
func TestServerSLOAbsentWithoutOption(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	resp, _ := doReq(t, srv, http.MethodGet, "/v1/slo")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo without WithSLO: status %d, want 404", resp.StatusCode)
	}
}

// TestServerHealthzSaturation: /healthz always carries the saturation block
// with live runtime numbers.
func TestServerHealthzSaturation(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithMetrics(obs.NewRegistry())))
	defer srv.Close()
	var body struct {
		Status     string          `json:"status"`
		Saturation *obs.Saturation `json:"saturation"`
	}
	_, raw := doReq(t, srv, http.MethodGet, "/healthz")
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		t.Fatal(err)
	}
	if body.Saturation == nil {
		t.Fatalf("healthz missing saturation block: %s", raw)
	}
	sat := body.Saturation
	if sat.Goroutines < 1 || sat.HeapAllocBytes == 0 || sat.GOMAXPROCS < 1 {
		t.Fatalf("implausible saturation: %+v", sat)
	}
	if sat.InFlightHTTP < 1 {
		// The /healthz request itself is in flight while sampled.
		t.Fatalf("in_flight_http = %v, want >= 1", sat.InFlightHTTP)
	}
}

// TestServerTracesLimit exercises the /v1/traces bounds: with more traces
// retained than the default limit, the bare listing returns exactly 50
// newest-first, and ?limit=5 returns 5.
func TestServerTracesLimit(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithTracer(obs.NewTracer(128))))
	defer srv.Close()

	const total = 60
	for i := 0; i < total; i++ {
		if resp, _ := doReq(t, srv, http.MethodGet, "/v1/roles"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed: %d", i, resp.StatusCode)
		}
	}
	type listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	fetch := func(path string) listing {
		t.Helper()
		var l listing
		resp, body := doReq(t, srv, http.MethodGet, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if err := json.Unmarshal([]byte(body), &l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Spans publish in a middleware defer; poll until the default listing
	// is full.
	var l listing
	for attempt := 0; attempt < 100; attempt++ {
		if l = fetch("/v1/traces"); len(l.Traces) == 50 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(l.Traces) != 50 {
		t.Fatalf("default listing = %d traces, want 50", len(l.Traces))
	}
	for i := 1; i < len(l.Traces); i++ {
		if l.Traces[i].Start.After(l.Traces[i-1].Start) {
			t.Fatalf("listing not newest-first at %d: %v after %v",
				i, l.Traces[i].Start, l.Traces[i-1].Start)
		}
	}
	if got := len(fetch("/v1/traces?limit=5").Traces); got != 5 {
		t.Fatalf("limit=5 returned %d traces", got)
	}
	resp, _ := doReq(t, srv, http.MethodGet, "/v1/traces?limit=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus limit: status %d, want 400", resp.StatusCode)
	}
}
