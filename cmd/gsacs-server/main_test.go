package main

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gsacs"
	"repro/internal/obs"
)

func TestBuildEngineBuiltinScenario(t *testing.T) {
	e, err := buildEngine("", "", 5, 3, 8, nil)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if e.Data().Len() == 0 {
		t.Error("empty scenario data")
	}
	if len(e.Policies().Rules) == 0 {
		t.Error("no policies")
	}
	// Serve it and hit an endpoint end to end.
	srv := httptest.NewServer(gsacs.NewServer(e, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/roles")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("roles = %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestObservabilityEndToEnd drives the fully-instrumented server the same
// way main() wires it and checks the acceptance criteria: /metrics serves
// every advertised family, and the /v1/query trace ID shows up in the logs.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelInfo)

	e, err := buildEngine("", "", 5, 3, 8, reg)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	e.EnableAudit(16)
	srv := httptest.NewServer(gsacs.NewServer(e, nil,
		gsacs.WithMetrics(reg), gsacs.WithLogger(logger)))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get(obs.TraceHeader)
	}

	query := "SELECT ?s WHERE { ?s a <http://grdf.org/app#ChemSite> }"
	_, traceID := get("/v1/query?role=Hazmat&q=" + url.QueryEscape(query))
	if traceID == "" {
		t.Fatal("no trace ID on /v1/query response")
	}
	if !strings.Contains(logBuf.String(), traceID) {
		t.Errorf("trace ID %s missing from logs:\n%s", traceID, logBuf.String())
	}

	metrics, _ := get("/metrics")
	for _, family := range []string{
		"grdf_http_request_duration_seconds_bucket",
		"grdf_http_requests_total",
		"grdf_http_in_flight_requests",
		"grdf_cache_hits_total",
		"grdf_cache_misses_total",
		"grdf_decisions_total",
		"grdf_reasoner_inferred_triples",
		"grdf_store_triples",
		"grdf_sparql_eval_duration_seconds",
		"grdf_audit_entries",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	if !strings.Contains(metrics, `grdf_http_requests_total{code="200",route="/v1/query"}`) {
		t.Errorf("per-route counter missing:\n%s", metrics)
	}

	// /healthz surfaces cache and audit stats (previously unreachable).
	health, _ := get("/healthz")
	for _, want := range []string{`"cache"`, `"hits"`, `"audit"`, `"overwritten"`, `"generation"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %s: %s", want, health)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError, "bogus": slog.LevelInfo,
	} {
		if got := parseLevel(in); got != want {
			t.Errorf("parseLevel(%q) = %v", in, got)
		}
	}
}

func TestBuildEngineCustomData(t *testing.T) {
	dir := t.TempDir()
	dataFile := filepath.Join(dir, "data.ttl")
	policyFile := filepath.Join(dir, "policies.ttl")
	os.WriteFile(dataFile, []byte(`
@prefix app: <http://grdf.org/app#> .
app:s1 a app:ChemSite ; app:hasSiteName "Plant" .
`), 0o644)
	os.WriteFile(policyFile, []byte(`
seconto:Viewer a seconto:Subject ; seconto:hasPolicy seconto:P1 .
seconto:P1 a seconto:Policy ;
    seconto:hasAction seconto:View ;
    seconto:hasPolicyDecision seconto:Permit ;
    seconto:hasResource app:ChemSite .
`), 0o644)

	e, err := buildEngine(dataFile, policyFile, 0, 0, 0, nil)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if len(e.Policies().Rules) != 1 {
		t.Errorf("rules = %d", len(e.Policies().Rules))
	}

	// error paths
	if _, err := buildEngine(dataFile, "", 0, 0, 0, nil); err == nil || !strings.Contains(err.Error(), "requires -policies") {
		t.Errorf("missing -policies not rejected: %v", err)
	}
	if _, err := buildEngine(filepath.Join(dir, "missing.ttl"), policyFile, 0, 0, 0, nil); err == nil {
		t.Error("missing data file accepted")
	}
	badPol := filepath.Join(dir, "bad.ttl")
	os.WriteFile(badPol, []byte("not turtle @@"), 0o644)
	if _, err := buildEngine(dataFile, badPol, 0, 0, 0, nil); err == nil {
		t.Error("bad policy file accepted")
	}
}

// waitListen blocks until addr accepts TCP connections (serve binds the
// listener asynchronously).
func waitListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("listener on %s never came up", addr)
}

// TestServeGracefulShutdown drives serve() through the signal path: an
// in-flight request must finish inside the drain window, the listener must
// stop accepting, and the shutdown must be logged as a clean drain.
func TestServeGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("done"))
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	ln.Close() // serve() calls ListenAndServe itself; we only wanted the port

	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelInfo)
	stop := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(srv, nil, stop, 2*time.Second, logger) }()
	waitListen(t, srv.Addr)

	// Fire a request that blocks in the handler, then deliver the signal.
	reqErr := make(chan error, 1)
	reqBody := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		reqBody <- string(b)
		reqErr <- nil
	}()
	select {
	case <-started:
	case err := <-reqErr:
		t.Fatalf("request failed before reaching handler: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	stop <- os.Interrupt
	// Shutdown is now draining; let the in-flight handler finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", err)
	}
	if got := <-reqBody; got != "done" {
		t.Errorf("in-flight response = %q, want done", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "shutdown signal received") ||
		!strings.Contains(logs, "drained cleanly") {
		t.Errorf("shutdown not logged:\n%s", logs)
	}
	// The listener is gone: new connections must fail.
	if _, err := http.Get("http://" + srv.Addr + "/v1/roles"); err == nil {
		t.Error("server still accepting after shutdown")
	}
}

// TestServeDrainTimeout forces the drain window to expire with a request
// still in flight: serve must log the forced close and return the error.
func TestServeDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	ln.Close()

	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelInfo)
	stop := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(srv, nil, stop, 20*time.Millisecond, logger) }()
	waitListen(t, srv.Addr)

	go func() { http.Get("http://" + srv.Addr + "/hang") }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	stop <- os.Interrupt
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("serve returned nil despite an un-drainable request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain timeout")
	}
	if !strings.Contains(logBuf.String(), "drain incomplete") {
		t.Errorf("forced close not logged:\n%s", logBuf.String())
	}
}
