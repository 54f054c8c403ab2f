package gsacs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/seconto"
)

// fedEnvelope is the degraded-response shape of a federated /v1/query.
type fedEnvelope struct {
	Head     struct{ Vars []string }   `json:"head"`
	Results  []map[string]string       `json:"results"`
	Degraded bool                      `json:"degraded"`
	Sources  []federation.SourceStatus `json:"sources"`
	Error    string                    `json:"error"`
	Code     string                    `json:"code"`
}

const fedTestQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`

// TestServerFederatedQueryDegraded is the acceptance chaos path end to end
// over HTTP: two sources, one forced to 100% errors. The /v1/query answer
// must carry the healthy source's solutions, degraded=true, a per-source
// status block — and the down source's breaker must open within its
// threshold.
func TestServerFederatedQueryDegraded(t *testing.T) {
	e, _ := scenarioEngine(t)
	downEngine, _ := scenarioEngine(t)
	down := federation.NewFaultySource(
		federation.NewLocalSource("down", downEngine),
		federation.FaultConfig{Seed: 3, ErrorRate: 1.0})

	const threshold = 3
	fed, err := federation.New(federation.Config{
		SourceTimeout: time.Second,
		Retry:         federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:       federation.BreakerConfig{Threshold: threshold, Cooldown: time.Minute},
	},
		federation.NewLocalSource("local", e), down)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.New(workload.Config{Capacity: 8})
	srv := httptest.NewServer(NewServer(e, nil, WithFederator(fed), WithWorkload(wl)))
	defer srv.Close()

	// Baseline: what the healthy engine alone answers.
	res, err := e.QueryCtx(context.Background(), datagen.RoleEmergency, seconto.ActionView, fedTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(res.Bindings())
	if wantRows == 0 {
		t.Fatal("baseline query returned no rows; test is vacuous")
	}

	path := "/v1/query?role=EmergencyResponse&q=" + url.QueryEscape(fedTestQuery)
	for i := 0; i < threshold+2; i++ {
		resp, body := doReq(t, srv, http.MethodGet, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
		var env fedEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("request %d: bad JSON: %v", i, err)
		}
		if !env.Degraded {
			t.Fatalf("request %d: degraded = false with a 100%%-error source", i)
		}
		if len(env.Results) != wantRows {
			t.Fatalf("request %d: %d rows, want the healthy source's %d", i, len(env.Results), wantRows)
		}
		if len(env.Sources) != 2 {
			t.Fatalf("request %d: sources block %+v, want 2 entries", i, env.Sources)
		}
		for _, st := range env.Sources {
			switch st.Source {
			case "local":
				if st.State != federation.StateOK {
					t.Errorf("request %d: local state %s, want ok", i, st.State)
				}
			case "down":
				if i >= threshold && st.State != federation.StateOpen {
					t.Errorf("request %d: down state %s, want open after %d failures",
						i, st.State, threshold)
				}
			}
		}
	}
	if st, ok := fed.BreakerState("down"); !ok || st != federation.Open {
		t.Errorf("down breaker = %v (known %v), want open", st, ok)
	}
	// Each request is booked once, as degraded, whatever its sources did.
	if top := wl.TopK(2); len(top) != 1 || top[0].Count != threshold+2 || top[0].Degraded != threshold+2 {
		t.Errorf("/v1/queries books %+v, want one shape with %d degraded requests", top, threshold+2)
	}
}

// TestServerFederatedAllSourcesFailed checks the one hard-failure case:
// every source down answers 502 with the uniform error envelope.
func TestServerFederatedAllSourcesFailed(t *testing.T) {
	e, _ := scenarioEngine(t)
	down := federation.NewFaultySource(
		federation.NewLocalSource("down", e),
		federation.FaultConfig{Seed: 3, ErrorRate: 1.0})
	fed, err := federation.New(federation.Config{
		Retry: federation.RetryConfig{MaxAttempts: 1},
	}, down)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e, nil, WithFederator(fed)))
	defer srv.Close()

	resp, body := doReq(t, srv, http.MethodGet,
		"/v1/query?role=EmergencyResponse&q="+url.QueryEscape(fedTestQuery))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d body %s, want 502", resp.StatusCode, body)
	}
	var env fedEnvelope
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

// TestOntoRepositoryCombinedCache verifies Combined is cached between
// mutations and invalidated by Register.
func TestOntoRepositoryCombinedCache(t *testing.T) {
	repo := NewOntoRepository()
	repo.Register("grdf", grdf.Ontology())
	gen0 := repo.Generation()

	first := repo.Combined()
	if first.Len() == 0 {
		t.Fatal("combined store empty")
	}
	if second := repo.Combined(); second != first {
		t.Error("Combined rebuilt with no intervening Register")
	}
	repo.Register("seconto", seconto.Ontology())
	if repo.Generation() == gen0 {
		t.Error("Register did not bump the generation")
	}
	third := repo.Combined()
	if third == first {
		t.Error("Combined cache not invalidated by Register")
	}
	if third.Len() <= first.Len() {
		t.Errorf("combined after second Register has %d triples, want > %d",
			third.Len(), first.Len())
	}
}

// TestOntoRepositoryCombinedConcurrent races Register against Combined and
// readers; run under -race this guards the cache's locking.
func TestOntoRepositoryCombinedConcurrent(t *testing.T) {
	repo := NewOntoRepository()
	repo.Register("grdf", grdf.Ontology())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := []string{"grdf", "seconto", "extra", "other"}[i%4]
				repo.Register(name, seconto.Ontology())
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if st := repo.Combined(); st.Len() == 0 {
					t.Error("combined store empty mid-run")
					return
				}
				_ = repo.Names()
				_, _ = repo.Get("grdf")
			}
		}()
	}
	wg.Wait()
	// Final state must reflect the last registrations exactly once each.
	final := repo.Combined()
	if final != repo.Combined() {
		t.Error("cache unstable after writers stopped")
	}
}
