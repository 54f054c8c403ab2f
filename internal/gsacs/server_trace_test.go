package gsacs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/store"
)

// traceNode mirrors the nested tree shape of /v1/traces/{id}.
type traceNode struct {
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id"`
	Name     string            `json:"name"`
	Duration int64             `json:"duration_us"`
	Attrs    map[string]string `json:"attrs"`
	Counters map[string]int64  `json:"counters"`
	Failed   bool              `json:"failed"`
	Children []traceNode       `json:"children"`
}

// traceBody is the /v1/traces/{id} envelope.
type traceBody struct {
	TraceID    string      `json:"trace_id"`
	Root       string      `json:"root"`
	DurationUS int64       `json:"duration_us"`
	Tree       []traceNode `json:"tree"`
}

// findSpans walks the tree collecting every node with the given name.
func findSpans(nodes []traceNode, name string) []traceNode {
	var out []traceNode
	for _, n := range nodes {
		if n.Name == name {
			out = append(out, n)
		}
		out = append(out, findSpans(n.Children, name)...)
	}
	return out
}

// fetchTrace polls /v1/traces/{id} until the trace is published (the root
// span ends in a middleware defer, which can race the client's next request).
func fetchTrace(t *testing.T, srv *httptest.Server, id string) traceBody {
	t.Helper()
	var tb traceBody
	for attempt := 0; attempt < 50; attempt++ {
		resp, body := doReq(t, srv, http.MethodGet, "/v1/traces/"+id)
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &tb); err != nil {
				t.Fatalf("bad trace JSON: %v (%s)", err, body)
			}
			return tb
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("trace %s never appeared", id)
	return tb
}

// TestServerFederatedTraceTree is the acceptance path: a query through a
// router over a SIGKILL'd replica (closed listener) and a healthy one must
// yield one trace whose tree parents a fed.source span per replica asked
// under fed.forward under the HTTP root — with the dead replica present as a
// FAILED span, not a hole — and the replica that answered holds the query's
// own spans under the same trace ID, parented under its fed.source span.
func TestServerFederatedTraceTree(t *testing.T) {
	peerEngine, sc := scenarioEngine(t)
	peer := httptest.NewServer(NewServer(peerEngine, nil, WithTracer(obs.NewTracer(64))))
	defer peer.Close()

	// A listener bound then closed: connecting gets connection-refused, the
	// HTTP-level equivalent of a peer killed hard.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + deadLn.Addr().String()
	deadLn.Close()

	// The first request starts at the first source: the dead one.
	fed, err := federation.New(federation.Config{
		SourceTimeout:  time.Second,
		Retry:          federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		DisableBreaker: true,
	},
		federation.NewRemoteSource("dead", deadURL, nil),
		federation.NewRemoteSource("peer", peer.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(64)
	srv := httptest.NewServer(NewServer(New(sc.Policies, store.New(), Options{}), nil,
		WithFederator(fed), WithTracer(tracer)))
	defer srv.Close()

	resp, body := doReq(t, srv, http.MethodGet,
		"/v1/query?role=EmergencyResponse&q="+url.QueryEscape(fedTestQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d body %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id on the response")
	}

	tb := fetchTrace(t, srv, traceID)
	if tb.Root != "http /v1/query" || len(tb.Tree) != 1 {
		t.Fatalf("trace = root %q, %d top-level spans; want one http /v1/query root",
			tb.Root, len(tb.Tree))
	}
	root := tb.Tree[0]
	forwards := findSpans([]traceNode{root}, "fed.forward")
	if len(forwards) != 1 {
		t.Fatalf("fed.forward spans = %d, want 1", len(forwards))
	}
	if forwards[0].ParentID != root.SpanID {
		t.Error("fed.forward not parented under the HTTP root")
	}
	sources := findSpans(forwards, "fed.source")
	if len(sources) != 2 {
		t.Fatalf("fed.source spans = %d, want 2 (dead, peer)", len(sources))
	}
	byName := map[string]traceNode{}
	for _, s := range sources {
		if s.ParentID != forwards[0].SpanID {
			t.Errorf("fed.source %q parented under %q, want the forward span",
				s.Attrs["source"], s.ParentID)
		}
		byName[s.Attrs["source"]] = s
	}
	dead, ok := byName["dead"]
	if !ok {
		t.Fatal("dead peer has no fed.source span — failure left a hole in the tree")
	}
	if !dead.Failed {
		t.Errorf("dead peer span = %+v, want failed", dead)
	}
	if dead.Attrs["state"] != federation.StateError {
		t.Errorf("dead peer state attr = %q, want error", dead.Attrs["state"])
	}
	if dead.Counters["retries"] == 0 {
		t.Error("dead peer recorded no retries despite MaxAttempts 2")
	}
	live, ok := byName["peer"]
	if !ok || live.Failed || live.Attrs["state"] != federation.StateOK {
		t.Errorf("peer span = %+v, want present and ok", live)
	}
	// The replica evaluated the query: its own trace, under the same ID,
	// parents its root under the router's fed.source span.
	ptb := fetchTrace(t, peer, traceID)
	if len(ptb.Tree) != 1 || ptb.Tree[0].ParentID != live.SpanID {
		t.Errorf("replica trace roots %+v, want one under the router's span %s", ptb.Tree, live.SpanID)
	}
	for _, name := range []string{"gsacs.query", "sparql.eval", "sparql.bgp.step"} {
		if n := findSpans(ptb.Tree, name); len(n) == 0 {
			t.Errorf("no %s spans in the replica's part of the trace", name)
		}
	}

	// The listing surfaces the same trace.
	resp, body = doReq(t, srv, http.MethodGet, "/v1/traces?limit=100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces status %d", resp.StatusCode)
	}
	var listing struct {
		Traces   []obs.TraceSummary `json:"traces"`
		Capacity int                `json:"capacity"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Capacity != 64 {
		t.Errorf("capacity = %d, want 64", listing.Capacity)
	}
	found := false
	for _, s := range listing.Traces {
		if s.TraceID == traceID {
			found = true
			if s.Spans < 4 {
				t.Errorf("listing reports %d spans for the federated trace", s.Spans)
			}
		}
	}
	if !found {
		t.Error("federated trace missing from /v1/traces listing")
	}
}

// TestServerTraceNotFound: unknown IDs get the uniform 404 envelope.
func TestServerTraceNotFound(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithTracer(obs.NewTracer(4))))
	defer srv.Close()
	resp, body := doReq(t, srv, http.MethodGet, "/v1/traces/ffffffffffffffff")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d body %s, want 404", resp.StatusCode, body)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code != "not_found" {
		t.Errorf("envelope = %s (err %v), want code not_found", body, err)
	}
}

// analyzeBody is the ?explain=analyze response shape.
type analyzeBody struct {
	Stages []struct {
		Stage        int     `json:"stage"`
		PatternIndex int     `json:"pattern_index"`
		Pattern      string  `json:"pattern"`
		Estimate     float64 `json:"estimate"`
		RowsIn       int64   `json:"rows_in"`
		RowsScanned  int64   `json:"rows_scanned"`
		RowsOut      int64   `json:"rows_out"`
		DurationUS   int64   `json:"duration_us"`
	} `json:"stages"`
	TotalUS   int64  `json:"total_us"`
	Kind      string `json:"kind"`
	Solutions int    `json:"solutions"`
	TraceID   string `json:"trace_id"`
}

// TestServerExplainAnalyze runs ?explain=analyze with and without a tracer:
// both must report per-stage actual timings and est-vs-actual cardinalities,
// because the handler falls back to a detached trace when the server has no
// tracer at all.
func TestServerExplainAnalyze(t *testing.T) {
	for _, withTracer := range []bool{false, true} {
		name := "detached"
		var opts []ServerOption
		if withTracer {
			name = "traced"
			opts = append(opts, WithTracer(obs.NewTracer(16)))
		}
		t.Run(name, func(t *testing.T) {
			e, _ := scenarioEngine(t)
			srv := httptest.NewServer(NewServer(e, nil, opts...))
			defer srv.Close()

			resp, body := doReq(t, srv, http.MethodGet,
				"/v1/query?role=EmergencyResponse&explain=analyze&q="+url.QueryEscape(fedTestQuery))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d body %s", resp.StatusCode, body)
			}
			var ab analyzeBody
			if err := json.Unmarshal([]byte(body), &ab); err != nil {
				t.Fatalf("bad JSON: %v (%s)", err, body)
			}
			if len(ab.Stages) != 2 {
				t.Fatalf("stages = %d, want 2 (the query has two patterns): %s", len(ab.Stages), body)
			}
			if ab.Kind != "SELECT" || ab.Solutions == 0 || ab.TotalUS <= 0 {
				t.Errorf("summary = kind %q solutions %d total %d", ab.Kind, ab.Solutions, ab.TotalUS)
			}
			for i, st := range ab.Stages {
				if st.Stage != i {
					t.Errorf("stage %d reports execution position %d", i, st.Stage)
				}
				if st.Pattern == "" || st.DurationUS <= 0 {
					t.Errorf("stage %d = %+v, want pattern text and a positive duration", i, st)
				}
				if st.Estimate < 0 {
					t.Errorf("stage %d has no planner estimate (%v) with planning on", i, st.Estimate)
				}
				if st.RowsScanned == 0 {
					t.Errorf("stage %d scanned no rows", i)
				}
			}
			if got := ab.Stages[0].RowsIn; got != 1 {
				t.Errorf("first stage rows_in = %d, want the single empty binding", got)
			}
			if got := int(ab.Stages[len(ab.Stages)-1].RowsOut); got != ab.Solutions {
				t.Errorf("last stage rows_out %d != solutions %d", got, ab.Solutions)
			}
		})
	}
}

// TestServerHealthzWAL: the durability block rides on /healthz when a status
// source is wired, and is absent while the source answers nil (recovery
// window) or is not configured.
func TestServerHealthzWAL(t *testing.T) {
	e, _ := scenarioEngine(t)
	var status any = map[string]any{"segments": 2, "last_snapshot_generation": 7}
	srv := httptest.NewServer(NewServer(e, nil, WithWALStatus(func() any { return status })))
	defer srv.Close()

	var body struct {
		Status string `json:"status"`
		WAL    *struct {
			Segments float64 `json:"segments"`
			Gen      float64 `json:"last_snapshot_generation"`
		} `json:"wal"`
	}
	_, raw := doReq(t, srv, http.MethodGet, "/healthz")
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		t.Fatal(err)
	}
	if body.WAL == nil || body.WAL.Segments != 2 || body.WAL.Gen != 7 {
		t.Fatalf("healthz wal block = %s", raw)
	}

	status = nil // the pre-recovery window
	body.WAL = nil
	_, raw = doReq(t, srv, http.MethodGet, "/healthz")
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		t.Fatal(err)
	}
	if body.WAL != nil {
		t.Fatalf("wal block present while the status source answers nil: %s", raw)
	}

	plain := httptest.NewServer(NewServer(e, nil))
	defer plain.Close()
	_, raw = doReq(t, plain, http.MethodGet, "/healthz")
	body.WAL = nil
	if err := json.Unmarshal([]byte(raw), &body); err != nil {
		t.Fatal(err)
	}
	if body.WAL != nil {
		t.Fatalf("wal block present without WithWALStatus: %s", raw)
	}
}

// TestServerViewSpanOnRequestTrace: /v1/view and explain=1 build (or hit) the
// role view under the request's own context, so the gsacs.view span — cache
// hit or miss, view_triples — lands on that request's trace.
func TestServerViewSpanOnRequestTrace(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil, WithTracer(obs.NewTracer(64))))
	defer srv.Close()

	q := url.QueryEscape(`SELECT ?s WHERE { ?s a app:ChemSite }`)
	for i, path := range []string{"/v1/view?role=MainRep", "/v1/query?role=MainRep&explain=1&q=" + q} {
		resp, body := doReq(t, srv, http.MethodGet, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d %s", path, resp.StatusCode, body)
		}
		tb := fetchTrace(t, srv, resp.Header.Get("X-Trace-Id"))
		views := findSpans(tb.Tree, "gsacs.view")
		if len(views) != 1 {
			t.Fatalf("%s: %d gsacs.view spans on the request trace, want 1", path, len(views))
		}
		// The first request builds the MainRep view, the second finds it cached.
		want := []string{"cache_miss", "cache_hit"}[i]
		if views[0].Counters[want] != 1 {
			t.Errorf("%s: gsacs.view counters = %v, want %s", path, views[0].Counters, want)
		}
	}
}
