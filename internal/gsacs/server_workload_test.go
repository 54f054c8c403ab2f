package gsacs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
)

// queriesBody is the /v1/queries listing shape.
type queriesBody struct {
	Queries      []workload.Snapshot `json:"queries"`
	Fingerprints int                 `json:"fingerprints"`
	Capacity     int                 `json:"capacity"`
}

func fetchQueries(t *testing.T, srv *httptest.Server, path string) queriesBody {
	t.Helper()
	resp, body := doReq(t, srv, http.MethodGet, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d body %s", path, resp.StatusCode, body)
	}
	var qb queriesBody
	if err := json.Unmarshal([]byte(body), &qb); err != nil {
		t.Fatalf("decode %s: %v (%s)", path, err, body)
	}
	return qb
}

// TestServerWorkloadEndpoint drives repeated queries of two shapes through a
// WithWorkload server and checks the /v1/queries rollup: both fingerprints
// tracked, counts by shape, sane latency quantiles, redacted examples, and
// the single-fingerprint detail view.
func TestServerWorkloadEndpoint(t *testing.T) {
	e, _ := scenarioEngine(t)
	wl := workload.New(workload.Config{Capacity: 64})
	srv := httptest.NewServer(NewServer(e, nil, WithWorkload(wl)))
	defer srv.Close()

	// Two shapes: same except for the literal constant, so shape B's two
	// variants must collide into one fingerprint.
	shapeA := `SELECT ?s WHERE { ?s a app:ChemSite }`
	shapeB1 := `SELECT ?n WHERE { ?s app:hasChemName ?n . FILTER(?n = "Chlorine") }`
	shapeB2 := `SELECT ?n WHERE { ?s app:hasChemName ?n . FILTER(?n = "Ammonia") }`
	for i := 0; i < 3; i++ {
		for _, q := range []string{shapeA, shapeB1, shapeB2} {
			resp, body := doReq(t, srv, http.MethodGet,
				"/v1/query?role=Hazmat&q="+url.QueryEscape(q))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %q = %d body %s", q, resp.StatusCode, body)
			}
		}
	}

	qb := fetchQueries(t, srv, "/v1/queries")
	if qb.Fingerprints != 2 || len(qb.Queries) != 2 {
		t.Fatalf("fingerprints = %d, queries = %d, want 2 shapes", qb.Fingerprints, len(qb.Queries))
	}
	if qb.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64", qb.Capacity)
	}
	// Shape B ran 6 times (two constants, one fingerprint), shape A ran 3.
	top := qb.Queries[0]
	if top.Count != 6 || qb.Queries[1].Count != 3 {
		t.Fatalf("counts = %d,%d, want 6,3", top.Count, qb.Queries[1].Count)
	}
	if top.Kind != "SELECT" {
		t.Fatalf("kind = %q", top.Kind)
	}
	if strings.Contains(top.Example, "Chlorine") || strings.Contains(top.Example, "Ammonia") {
		t.Fatalf("example leaks literal constants: %s", top.Example)
	}
	if top.P50Ms <= 0 || top.P99Ms < top.P50Ms || top.MaxMs < top.P99Ms {
		t.Fatalf("nonsense quantiles: p50=%v p99=%v max=%v", top.P50Ms, top.P99Ms, top.MaxMs)
	}
	if top.RowsOut == 0 {
		t.Fatal("rows_out = 0 after solutions were returned")
	}

	// Detail view round-trips through the listing's hex fingerprint.
	resp, body := doReq(t, srv, http.MethodGet, "/v1/queries?fp="+top.Fingerprint)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail = %d body %s", resp.StatusCode, body)
	}
	var detail workload.Snapshot
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Fingerprint != top.Fingerprint || detail.Count < top.Count {
		t.Fatalf("detail diverges from listing: %+v vs %+v", detail, top)
	}
	if resp, _ := doReq(t, srv, http.MethodGet, "/v1/queries?fp=ffffffffffffffff"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fp = %d, want 404", resp.StatusCode)
	}

	// ?limit bounds the listing without losing the totals.
	qb = fetchQueries(t, srv, "/v1/queries?limit=1")
	if len(qb.Queries) != 1 || qb.Fingerprints != 2 {
		t.Fatalf("limit=1: queries=%d fingerprints=%d", len(qb.Queries), qb.Fingerprints)
	}
}

// TestServerWorkloadRecordsShed verifies satellite (b): a request rejected by
// the admission gate never reaches the engine, yet its fingerprint appears in
// /v1/queries with the shed counter — the heavy hitter that caused the
// shedding stays attributable.
func TestServerWorkloadRecordsShed(t *testing.T) {
	e, _ := scenarioEngine(t)
	wl := workload.New(workload.Config{Capacity: 64})
	ctrl := admission.NewController(admission.Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		MaxQueue:    admission.NoQueue,
		AdjustEvery: time.Hour,
	})
	srv := httptest.NewServer(NewServer(e, nil,
		WithWorkload(wl),
		WithAdmission(AdmissionConfig{Controller: ctrl})))
	defer srv.Close()

	release, err := ctrl.Admit(context.Background(), admission.ClassQuery, admission.Normal)
	if err != nil {
		t.Fatalf("priming admit: %v", err)
	}
	q := `SELECT ?s WHERE { ?s a app:ChemSite }`
	resp, _ := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q="+url.QueryEscape(q))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	release()

	qb := fetchQueries(t, srv, "/v1/queries")
	if len(qb.Queries) != 1 {
		t.Fatalf("queries = %d, want the shed fingerprint", len(qb.Queries))
	}
	shed := qb.Queries[0]
	if shed.Shed != 1 || shed.Count != 0 {
		t.Fatalf("shed=%d count=%d, want 1,0 (never evaluated)", shed.Shed, shed.Count)
	}
	if shed.Example == "" || shed.Kind != "SELECT" {
		t.Fatalf("shed entry missing shape context: %+v", shed)
	}

	// The same shape evaluated after capacity returns merges into the entry.
	if resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q="+url.QueryEscape(q)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query = %d body %s", resp.StatusCode, body)
	}
	qb = fetchQueries(t, srv, "/v1/queries")
	if got := qb.Queries[0]; got.Shed != 1 || got.Count != 1 {
		t.Fatalf("after evaluation: shed=%d count=%d, want 1,1", got.Shed, got.Count)
	}
}

// TestServerProfilesEndpoint checks /v1/profiles end to end: a triggered
// capture appears in the listing with its reason, and both pprof payloads
// download as gzip (0x1f8b) bytes.
func TestServerProfilesEndpoint(t *testing.T) {
	e, _ := scenarioEngine(t)
	p := prof.New(prof.Config{Ring: 4, CPUWindow: 50 * time.Millisecond})
	srv := httptest.NewServer(NewServer(e, nil, WithProfiler(p)))
	defer srv.Close()

	if !p.Trigger("manual") {
		t.Fatal("trigger suppressed on idle profiler")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(p.List()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("capture never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, body := doReq(t, srv, http.MethodGet, "/v1/profiles")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d body %s", resp.StatusCode, body)
	}
	var listing struct {
		Profiles []prof.Meta `json:"profiles"`
		Capacity int         `json:"capacity"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Capacity != 4 || len(listing.Profiles) != 1 {
		t.Fatalf("capacity=%d profiles=%d", listing.Capacity, len(listing.Profiles))
	}
	meta := listing.Profiles[0]
	if meta.Reason != "manual" || meta.HeapBytes == 0 {
		t.Fatalf("capture meta: %+v", meta)
	}

	for _, kind := range []string{"cpu", "heap"} {
		resp, raw := doReq(t, srv, http.MethodGet,
			"/v1/profiles?id=1&kind="+kind)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s download = %d", kind, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("%s content-type = %q", kind, ct)
		}
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Fatalf("%s payload is not gzipped pprof (leading bytes %x)", kind, raw[:min(4, len(raw))])
		}
	}
	if resp, _ := doReq(t, srv, http.MethodGet, "/v1/profiles?id=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestProfilesBypassReadinessGate verifies satellite (a): while the server
// reports unready, the data plane answers 503 but the profiling surface —
// /v1/profiles and /debug/pprof/ — stays reachable. Diagnosing a stuck
// recovery needs exactly those endpoints.
func TestProfilesBypassReadinessGate(t *testing.T) {
	e, _ := scenarioEngine(t)
	p := prof.New(prof.Config{Ring: 2, CPUWindow: 50 * time.Millisecond})
	srv := httptest.NewServer(NewServer(e, nil,
		WithProfiler(p), WithPprof(),
		WithReadiness(func() bool { return false })))
	defer srv.Close()

	if resp, _ := doReq(t, srv, http.MethodGet, "/v1/roles"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("data plane = %d, want 503 while unready", resp.StatusCode)
	}
	if resp, body := doReq(t, srv, http.MethodGet, "/v1/profiles"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/profiles = %d body %s, want 200 while unready", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, srv, http.MethodGet, "/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200 while unready", resp.StatusCode)
	}
}

// TestServerClusterRollup builds two peer servers (each with its own
// workload table and SLO engine), drives distinct-but-overlapping query
// shapes through them, and checks the router's /v1/cluster: per-peer blocks
// with SLO verdicts, and a fleet top-K whose per-fingerprint counts sum
// across nodes — fingerprints are canonical, so the same shape merges.
func TestServerClusterRollup(t *testing.T) {
	peer := func() (*httptest.Server, *workload.Table) {
		e, _ := scenarioEngine(t)
		wl := workload.New(workload.Config{Capacity: 64})
		slo := obs.NewSLOEngine(obs.SLOConfig{
			LatencyTarget:      5 * time.Second,
			AvailabilityTarget: 0.5,
		})
		srv := httptest.NewServer(NewServer(e, nil,
			WithMetrics(obs.NewRegistry()), WithWorkload(wl), WithSLO(slo)))
		t.Cleanup(srv.Close)
		return srv, wl
	}
	peerA, _ := peer()
	peerB, _ := peer()

	shared := `SELECT ?s WHERE { ?s a app:ChemSite }`
	onlyB := `SELECT ?n WHERE { ?s app:hasChemName ?n }`
	run := func(srv *httptest.Server, q string, n int) {
		for i := 0; i < n; i++ {
			if resp, body := doReq(t, srv, http.MethodGet,
				"/v1/query?role=Hazmat&q="+url.QueryEscape(q)); resp.StatusCode != http.StatusOK {
				t.Fatalf("peer query = %d body %s", resp.StatusCode, body)
			}
		}
	}
	run(peerA, shared, 2)
	run(peerB, shared, 3)
	run(peerB, onlyB, 1)

	e, _ := scenarioEngine(t)
	router := httptest.NewServer(NewServer(e, nil,
		WithCluster(ClusterConfig{
			SelfName: "router",
			Peers: []ClusterPeer{
				{Name: "peer-a", Base: peerA.URL},
				{Name: "peer-b", Base: peerB.URL},
			},
		})))
	defer router.Close()

	resp, body := doReq(t, router, http.MethodGet, "/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster = %d body %s", resp.StatusCode, body)
	}
	var rollup struct {
		Self  map[string]any      `json:"self"`
		Peers []clusterPeerReport `json:"peers"`
		Fleet struct {
			Status         string              `json:"status"`
			PeersTotal     int                 `json:"peers_total"`
			PeersOK        int                 `json:"peers_ok"`
			AvailabilityOK bool                `json:"availability_ok"`
			TopQueries     []workload.Snapshot `json:"top_queries"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(body), &rollup); err != nil {
		t.Fatalf("decode cluster: %v (%s)", err, body)
	}
	if rollup.Self["name"] != "router" {
		t.Fatalf("self block: %+v", rollup.Self)
	}
	if rollup.Fleet.PeersTotal != 2 || rollup.Fleet.PeersOK != 2 || rollup.Fleet.Status != "ok" {
		t.Fatalf("fleet verdict: %+v (peer errors: %+v, %+v)",
			rollup.Fleet, rollup.Peers[0].Errors, rollup.Peers[1].Errors)
	}
	if !rollup.Fleet.AvailabilityOK {
		t.Fatal("availability_ok = false on a healthy fleet")
	}
	for _, p := range rollup.Peers {
		if !p.OK || p.Status != "ok" {
			t.Fatalf("peer %s not ok: %+v", p.Name, p)
		}
		if p.AvailabilityOK == nil || !*p.AvailabilityOK {
			t.Fatalf("peer %s missing SLO verdict: %+v", p.Name, p)
		}
		if len(p.TopQueries) == 0 {
			t.Fatalf("peer %s has no top queries", p.Name)
		}
	}
	// The shared shape ran 2+3 times; the merge must sum the counts under
	// one fingerprint and rank it first.
	if len(rollup.Fleet.TopQueries) != 2 {
		t.Fatalf("fleet top-K = %d shapes, want 2", len(rollup.Fleet.TopQueries))
	}
	if top := rollup.Fleet.TopQueries[0]; top.Count != 5 {
		t.Fatalf("merged count = %d, want 5 (2 from peer-a + 3 from peer-b)", top.Count)
	}
	if second := rollup.Fleet.TopQueries[1]; second.Count != 1 {
		t.Fatalf("second shape count = %d, want 1", second.Count)
	}

	// A dead peer degrades the rollup instead of failing it.
	peerB.Close()
	resp, body = doReq(t, router, http.MethodGet, "/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster with dead peer = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.Fleet.PeersOK != 1 || rollup.Fleet.Status != "degraded" {
		t.Fatalf("dead-peer fleet verdict: %+v", rollup.Fleet)
	}
}
