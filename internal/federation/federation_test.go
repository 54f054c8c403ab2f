// Chaos tests for the router, driven through real G-SACS servers over the
// Section 7.1 scenario: every member is a replica of the merged dataset,
// served over HTTP, and some of them are made sick.
package federation_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/owl"
	"repro/internal/seconto"
	"repro/internal/store"
)

// chemQuery lists the chemical sites with their names.
var chemQuery = "role=EmergencyResponse&q=" + url.QueryEscape(`SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`)

// replica serves the merged 6-site scenario over HTTP, as a follower of the
// scenario's leader would, and counts the requests it is sent.
func replica(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 11, Sites: 6})
	r := owl.NewReasonerOver(store.New())
	r.AddGraph(grdf.Ontology())
	r.AddGraph(seconto.Ontology())
	r.AddAll(sc.Merged.Triples())
	h := gsacs.NewServer(gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: r}), nil)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// direct is what the replica at base answers rawQuery with.
func direct(t *testing.T, base, rawQuery string) *federation.Answer {
	t.Helper()
	ans, err := federation.NewRemoteSource("direct", base, nil).Get(context.Background(),
		federation.Request{Path: federation.QueryPath, RawQuery: rawQuery})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status == http.StatusOK && !bytes.Contains(ans.Body, []byte("chem_site")) {
		t.Fatalf("the replica lists no sites, the test shows nothing: %s", ans.Body)
	}
	return ans
}

// TestFederatedDegradationChaos is the headline chaos scenario: one of two
// replicas forced to 100% errors. Every request must still be answered with
// the healthy replica's bytes, and the down replica's breaker must open
// within its configured threshold of failures.
func TestFederatedDegradationChaos(t *testing.T) {
	healthy, _ := replica(t)
	sick, _ := replica(t)
	down := federation.NewFaultySource(
		federation.NewRemoteSource("down", sick.URL, nil),
		federation.FaultConfig{Seed: 1, ErrorRate: 1.0})

	const threshold = 3
	fed, err := federation.New(federation.Config{
		SourceTimeout: time.Second,
		Retry:         federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:       federation.BreakerConfig{Threshold: threshold, Cooldown: time.Minute},
	},
		federation.NewRemoteSource("healthy", healthy.URL, nil), down)
	if err != nil {
		t.Fatal(err)
	}

	want := direct(t, healthy.URL, chemQuery)
	// The down replica is first in line on every second request.
	for i := 0; i < 2*threshold+2; i++ {
		ans, err := fed.Forward(context.Background(), federation.Request{Path: federation.QueryPath, RawQuery: chemQuery})
		if err != nil {
			t.Fatalf("request %d: failed outright with a healthy replica: %v", i, err)
		}
		if ans.Status != want.Status || !bytes.Equal(ans.Body, want.Body) {
			t.Fatalf("request %d: %d %s, want the healthy replica's answer", i, ans.Status, ans.Body)
		}
	}
	if st, ok := fed.BreakerState("down"); !ok || st != federation.Open {
		t.Errorf("breaker state = %v (known=%v), want open", st, ok)
	}
	if st, ok := fed.BreakerState("healthy"); !ok || st != federation.Closed {
		t.Errorf("healthy breaker state = %v (known=%v), want closed", st, ok)
	}
	// Two attempts per try, and no try once the breaker is open.
	if n := down.Stats().Requests; n != 2*threshold {
		t.Errorf("the down replica was called %d times, want %d", n, 2*threshold)
	}
}

// TestFederationChaosInvariants drives a router over three replicas, two of
// them misbehaving (errors, hangs, garbage bodies), and asserts the
// availability and correctness invariants: no request fails outright, and
// every answer is the healthy replica's bytes — a garbage body is never
// passed on.
func TestFederationChaosInvariants(t *testing.T) {
	healthy, _ := replica(t)
	r1, _ := replica(t)
	r2, _ := replica(t)
	flaky1 := federation.NewFaultySource(
		federation.NewRemoteSource("flaky1", r1.URL, nil),
		federation.FaultConfig{Seed: 42, ErrorRate: 0.35, HangRate: 0.2, GarbageRate: 0.2, Latency: 200 * time.Microsecond})
	flaky2 := federation.NewFaultySource(
		federation.NewRemoteSource("flaky2", r2.URL, nil),
		federation.FaultConfig{Seed: 43, ErrorRate: 0.5, HangRate: 0.3, Latency: 100 * time.Microsecond})

	fed, err := federation.New(federation.Config{
		SourceTimeout: 20 * time.Millisecond,
		Retry:         federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:       federation.BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond},
	},
		federation.NewRemoteSource("healthy", healthy.URL, nil), flaky1, flaky2)
	if err != nil {
		t.Fatal(err)
	}

	want := direct(t, healthy.URL, chemQuery)
	for i := 0; i < 60; i++ {
		ans, err := fed.Forward(context.Background(), federation.Request{Path: federation.QueryPath, RawQuery: chemQuery})
		if err != nil {
			t.Fatalf("request %d failed outright with a healthy member: %v", i, err)
		}
		if ans.Status != want.Status || !bytes.Equal(ans.Body, want.Body) {
			t.Fatalf("request %d: %d %q, want the healthy replica's answer", i, ans.Status, ans.Body)
		}
	}
	s1, s2 := flaky1.Stats(), flaky2.Stats()
	if s1.Errors == 0 || s1.Hangs == 0 || s1.Garbage == 0 || s2.Errors+s2.Hangs == 0 {
		t.Errorf("fault injection inert, the test shows nothing: %+v %+v", s1, s2)
	}
}

// TestRemoteSourceEndToEnd routes through a real replica served over HTTP:
// a query comes back as the replica's bytes, and a malformed one as its 400,
// asked once — a refusal is an answer, not a fault to retry.
func TestRemoteSourceEndToEnd(t *testing.T) {
	peer, calls := replica(t)
	fed, err := federation.New(federation.Config{},
		federation.NewRemoteSource("peer", peer.URL, peer.Client()))
	if err != nil {
		t.Fatal(err)
	}
	want := direct(t, peer.URL, chemQuery)
	ans, err := fed.Forward(context.Background(), federation.Request{Path: federation.QueryPath, RawQuery: chemQuery})
	if err != nil {
		t.Fatalf("routed query over HTTP: %v", err)
	}
	if ans.Status != http.StatusOK || ans.ContentType != "application/json" || !bytes.Equal(ans.Body, want.Body) {
		t.Errorf("routed answer %d %s %s, want the replica's %s", ans.Status, ans.ContentType, ans.Body, want.Body)
	}

	broken := "role=EmergencyResponse&q=" + url.QueryEscape("SELECT ?x WHERE { broken")
	before := calls.Load()
	ans, err = fed.Forward(context.Background(), federation.Request{Path: federation.QueryPath, RawQuery: broken})
	if err != nil || ans.Status != http.StatusBadRequest || !bytes.Contains(ans.Body, []byte(`"code":"query_error"`)) {
		t.Fatalf("malformed query: %+v, %v; want the replica's 400 query_error", ans, err)
	}
	if n := calls.Load() - before; n != 1 {
		t.Errorf("the replica was asked %d times for a malformed query, want once", n)
	}
}
