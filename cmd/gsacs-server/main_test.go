package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// logBuffer collects a server's log lines; the server's goroutines write
// while the test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// parseConfig runs args through the flag set main() registers: real names,
// real defaults, real parsing.
func parseConfig(t *testing.T, args ...string) *config {
	t.Helper()
	fs := flag.NewFlagSet("gsacs-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := new(config)
	cfg.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cfg
}

// startInProcess takes args the way main() does — parse, validate, assemble,
// serve, start — with an httptest listener in place of -addr, and returns
// the base URL. Logs go to logw.
func startInProcess(t *testing.T, logw io.Writer, args ...string) string {
	t.Helper()
	cfg := parseConfig(t, args...)
	if err := cfg.validate(); err != nil {
		t.Fatalf("validate %q: %v", args, err)
	}
	app, err := assemble(cfg, obs.NewLogger(logw, slog.LevelInfo))
	if err != nil {
		t.Fatalf("assemble %q: %v", args, err)
	}
	srv := httptest.NewServer(app.handler)
	app.start()
	t.Cleanup(func() {
		srv.Close()
		app.close()
	})
	return srv.URL
}

// get fetches base+path and returns status, body and the trace header.
func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header.Get(obs.TraceHeader)
}

// storeTriples reads the triple count off /v1/store.
func storeTriples(t *testing.T, base string) int {
	t.Helper()
	code, body, _ := get(t, base, "/v1/store")
	var parsed struct {
		Triples int `json:"triples"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/store = %d %v: %s", code, err, body)
	}
	return parsed.Triples
}

// writeCustomDataset writes a one-site dataset and a one-rule policy file.
func writeCustomDataset(t *testing.T) (dataFile, policyFile string) {
	t.Helper()
	dir := t.TempDir()
	dataFile = filepath.Join(dir, "data.ttl")
	policyFile = filepath.Join(dir, "policies.ttl")
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
	return dataFile, policyFile
}

// TestStandaloneAssembly drives the default-configured standalone server
// through the same assembly main() runs and checks what the exec'd binary
// promises: the observability surface (/metrics serves every advertised
// family, the /v1/query trace ID shows up in the logs, /healthz carries the
// cache, audit and admission blocks) and the SLO, workload and profiler
// routes, all mounted without a flag.
func TestStandaloneAssembly(t *testing.T) {
	var logBuf logBuffer
	base := startInProcess(t, &logBuf, "-sites", "5", "-seed", "3")

	if n := storeTriples(t, base); n == 0 {
		t.Error("empty scenario data")
	}
	if code, body, _ := get(t, base, "/v1/roles"); code != 200 || !strings.Contains(body, "Hazmat") {
		t.Fatalf("roles = %d %s", code, body)
	}

	query := "SELECT ?s WHERE { ?s a <http://grdf.org/app#ChemSite> }"
	_, _, traceID := get(t, base, "/v1/query?role=Hazmat&q="+url.QueryEscape(query))
	if traceID == "" {
		t.Fatal("no trace ID on /v1/query response")
	}
	// The request has one log line, and it carries the query's shape.
	var lines []string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, traceID) {
			lines = append(lines, line)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d log lines for trace %s, want 1:\n%s", len(lines), traceID, logBuf.String())
	}
	for _, field := range []string{`"route":"/v1/query"`, `"role":"Hazmat"`, `"kind":"SELECT"`, `"outcome":"ok"`, `"fingerprint":"`} {
		if !strings.Contains(lines[0], field) {
			t.Errorf("query log line lacks %s: %s", field, lines[0])
		}
	}
	// /v1/queries books the same request under its fingerprint.
	_, body, _ := get(t, base, "/v1/queries")
	var queries struct {
		Queries []struct {
			Kind        string `json:"kind"`
			Count       int    `json:"count"`
			RowsOut     int    `json:"rows_out"`
			LastTraceID string `json:"last_trace_id"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &queries); err != nil || len(queries.Queries) != 1 {
		t.Fatalf("/v1/queries = %s (%v), want the one shape", body, err)
	}
	if q := queries.Queries[0]; q.Kind != "SELECT" || q.Count != 1 || q.RowsOut == 0 || q.LastTraceID != traceID {
		t.Errorf("/v1/queries entry %+v, want one SELECT with rows, exemplar %s", q, traceID)
	}

	_, metrics, _ := get(t, base, "/metrics")
	for _, family := range []string{
		"grdf_http_request_duration_seconds_bucket",
		"grdf_http_requests_total",
		"grdf_http_in_flight_requests",
		"grdf_cache_hits_total",
		"grdf_cache_misses_total",
		"grdf_decisions_total",
		"grdf_decision_duration_seconds_bucket{role=\"Hazmat\"",
		"grdf_reasoner_inferred_triples",
		"grdf_reasoner_materializations_total",
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
	if !strings.Contains(metrics, `grdf_http_request_duration_seconds_count{route="/v1/query"} 1`) {
		t.Errorf("per-route latency histogram missing or miscounted:\n%s", metrics)
	}
	// The boot materialization is measured, not just registered.
	if strings.Contains(metrics, "grdf_reasoner_materializations_total 0\n") {
		t.Error("boot materialization not counted")
	}

	// /healthz surfaces cache and audit stats, and the admission block the
	// default configuration turns on.
	_, health, _ := get(t, base, "/healthz")
	for _, want := range []string{`"cache"`, `"hits"`, `"audit"`, `"overwritten"`, `"generation"`, `"admission"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %s: %s", want, health)
		}
	}
	for _, path := range []string{"/v1/slo", "/v1/queries", "/v1/profiles"} {
		if code, body, _ := get(t, base, path); code != http.StatusOK {
			t.Errorf("%s = %d, want 200 on a default-configured server: %s", path, code, body)
		}
	}
}

// TestCustomDataset: -data/-policies replace the scenario — served directly,
// or journaled by a leader as its first commit — and a file that cannot be
// read or parsed fails assembly rather than serving nothing.
func TestCustomDataset(t *testing.T) {
	dataFile, policyFile := writeCustomDataset(t)
	base := startInProcess(t, io.Discard, "-data", dataFile, "-policies", policyFile)
	code, body, _ := get(t, base, "/v1/roles")
	var roles struct {
		Roles []string `json:"roles"`
	}
	if err := json.Unmarshal([]byte(body), &roles); code != 200 || err != nil || len(roles.Roles) != 1 {
		t.Errorf("roles = %d %v %s, want the policy file's one subject", code, err, body)
	}
	if n := storeTriples(t, base); n != 2 {
		t.Errorf("triples = %d, want the data file's 2", n)
	}

	// A leader journals the parsed file as its first commit.
	leader := startInProcess(t, io.Discard, "-data", dataFile, "-policies", policyFile, "-data-dir", t.TempDir())
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if code, _, _ := get(t, leader, "/healthz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never became ready")
		}
	}
	code, body, _ = get(t, leader, "/v1/store")
	var st struct {
		Triples    int    `json:"triples"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &st); code != 200 || err != nil || st.Triples != 2 || st.Generation != 1 {
		t.Errorf("leader /v1/store = %d %v %s, want the data file's 2 triples at generation 1", code, err, body)
	}

	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	if err := parseConfig(t, "-data", dataFile).validate(); err == nil || !strings.Contains(err.Error(), "requires -policies") {
		t.Errorf("missing -policies not rejected: %v", err)
	}
	if _, err := assemble(parseConfig(t, "-data", filepath.Join(t.TempDir(), "missing.ttl"), "-policies", policyFile), logger); err == nil {
		t.Error("missing data file accepted")
	}
	badPol := filepath.Join(t.TempDir(), "bad.ttl")
	os.WriteFile(badPol, []byte("not turtle @@"), 0o644)
	if _, err := assemble(parseConfig(t, "-data", dataFile, "-policies", badPol), logger); err == nil {
		t.Error("bad policy file accepted")
	}
}

// TestSeedRecordHoldsEachTripleOnce: a -data file that states a triple twice
// is journaled by a leader as a first commit holding that triple once.
func TestSeedRecordHoldsEachTripleOnce(t *testing.T) {
	_, policyFile := writeCustomDataset(t)
	dataFile := filepath.Join(t.TempDir(), "data.ttl")
	os.WriteFile(dataFile, []byte(`
@prefix app: <http://grdf.org/app#> .
app:s1 a app:ChemSite ; app:hasSiteName "Plant" .
app:s1 app:hasSiteName "Plant" .
`), 0o644)
	dir := t.TempDir()
	leader := startInProcess(t, io.Discard, "-data", dataFile, "-policies", policyFile, "-data-dir", dir)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if code, _, _ := get(t, leader, "/healthz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never became ready")
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	if len(segs) == 0 {
		t.Fatal("the leader wrote no WAL segment")
	}
	slices.Sort(segs)
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := wal.DecodeRecord(buf, 0)
	if err != nil || rec.Kind != wal.KindCommit || len(rec.Ops) != 1 {
		t.Fatalf("first record: %v, %v with %d ops; want the seed commit", err, rec.Kind, len(rec.Ops))
	}
	if got := rec.Ops[0].Triples; len(got) != 2 {
		t.Errorf("the seed record holds %d triples, want the file's 2 distinct ones: %v", len(got), got)
	}
}

// TestRouterHoldsNoData: a router loads the policies and nothing else. It
// used to build the scenario dataset (and a reasoner over it) and answer
// /v1/view out of that phantom copy, and then with an empty view out of its
// empty store. Its only replica here is dead, so each view is a 502.
func TestRouterHoldsNoData(t *testing.T) {
	base := startInProcess(t, io.Discard, "-source", "http://127.0.0.1:1", "-sites", "3")
	if n := storeTriples(t, base); n != 0 {
		t.Errorf("router /v1/store reports %d triples, want 0", n)
	}
	if code, body, _ := get(t, base, "/v1/roles"); code != 200 || !strings.Contains(body, "MainRep") {
		t.Errorf("router lost its policies: %d %s", code, body)
	}
	for _, role := range []string{"MainRep", "Hazmat", "EmergencyResponse"} {
		if code, body, _ := get(t, base, "/v1/view?format=ntriples&role="+role); code != http.StatusBadGateway ||
			!strings.Contains(body, `"code":"all_sources_failed"`) {
			t.Errorf("router answers a view to %s with no replica up: %d %q, want 502 all_sources_failed", role, code, body)
		}
		// No role can write into a store nothing reads.
		resp, err := http.Post(base+"/v1/mutate?role="+role, "application/json", strings.NewReader(
			`[{"op":"insert","triples":"<http://grdf.org/app#x> <http://example.org/note> \"phantom\" ."}]`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("router accepted a mutation from %s", role)
		}
	}
	if n := storeTriples(t, base); n != 0 {
		t.Errorf("router holds %d triples after refused mutations", n)
	}

	// The dataset is the replicas' business: a router does not even open it.
	_, policyFile := writeCustomDataset(t)
	base = startInProcess(t, io.Discard, "-source", "http://127.0.0.1:1",
		"-data", filepath.Join(t.TempDir(), "absent.ttl"), "-policies", policyFile)
	if code, body, _ := get(t, base, "/v1/roles"); code != 200 || !strings.Contains(body, "Viewer") {
		t.Errorf("router with a policy file: %d %s", code, body)
	}
}

// TestFollowerStartsEmpty: a follower's triples come from its leader. It
// loads the policies, never the dataset, and replicates into an empty store.
func TestFollowerStartsEmpty(t *testing.T) {
	// A dead leader: the replica stays unbootstrapped, so what it holds is
	// what it started with. /healthz answers 503 with the full body.
	base := startInProcess(t, io.Discard, "-follow", "http://127.0.0.1:1", "-sites", "3")
	code, body, _ := get(t, base, "/healthz")
	var health struct {
		Status  string `json:"status"`
		Triples *int   `json:"triples"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || health.Status != "recovering" || health.Triples == nil || *health.Triples != 0 {
		t.Errorf("unbootstrapped follower /healthz = %d %s, want 503 recovering with 0 triples", code, body)
	}

	_, policyFile := writeCustomDataset(t)
	startInProcess(t, io.Discard, "-follow", "http://127.0.0.1:1",
		"-data", filepath.Join(t.TempDir(), "absent.ttl"), "-policies", policyFile)

	// Against a live leader it converges on the leader's triples — a leader
	// of 3 sites, whatever -sites the follower was handed.
	leaderBase := startInProcess(t, io.Discard, "-data-dir", t.TempDir(), "-sites", "3", "-snapshot-every", "0")
	waitHealth(t, leaderBase, http.StatusOK, new(bytes.Buffer), "in-process leader recovery")
	followerBase := startInProcess(t, io.Discard, "-follow", leaderBase, "-sites", "40")
	waitHealth(t, followerBase, http.StatusOK, new(bytes.Buffer), "in-process follower bootstrap")
	if got, want := storeTriples(t, followerBase), storeTriples(t, leaderBase); got != want || want == 0 {
		t.Errorf("follower holds %d triples, leader %d", got, want)
	}
}

// TestFlagSurface holds the flag set to its budget and to its documentation:
// a new flag has to retire one or argue for a bigger budget, and the README
// "Server flags" table cannot drift from what the binary registers.
func TestFlagSurface(t *testing.T) {
	const budget = 31 // also enforced on the built binary's -h output in CI
	fs := flag.NewFlagSet("gsacs-server", flag.ContinueOnError)
	new(config).register(fs)
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, "-"+f.Name) })
	if len(registered) > budget {
		t.Errorf("%d flags registered, budget is %d", len(registered), budget)
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n## Server flags\n")
	if !found {
		t.Fatal(`README.md has no "## Server flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[a-z-]+)` ").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(documented)
	if !slices.Equal(registered, documented) {
		t.Errorf("README \"Server flags\" table and register() disagree:\n registered: %v\n documented: %v", registered, documented)
	}
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

	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelInfo)
	stop := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(srv, ln, stop, 2*time.Second, logger) }()

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

	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelInfo)
	stop := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(srv, ln, stop, 20*time.Millisecond, logger) }()

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
