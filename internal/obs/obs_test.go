package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("reqs_total", "").Value() != 3 {
		t.Error("counter handle not shared")
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "", "b", "2", "a", "1")
	b := r.Counter("m", "", "a", "1", "b", "2")
	a.Inc()
	if b.Value() != 1 {
		t.Error("label order produced distinct series")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m{a="1",b="2"} 1`) {
		t.Errorf("exposition:\n%s", sb.String())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}, "route", "/q")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# TYPE lat_seconds histogram`,
		`lat_seconds_bucket{route="/q",le="0.01"} 1`,
		`lat_seconds_bucket{route="/q",le="0.1"} 2`,
		`lat_seconds_bucket{route="/q",le="1"} 3`,
		`lat_seconds_bucket{route="/q",le="+Inf"} 4`,
		`lat_seconds_count{route="/q"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if s := h.Sum(); s < 5.55 || s > 5.56 {
		t.Errorf("Sum = %v", s)
	}
}

func TestCallbackInstruments(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("live", "callback gauge", func() float64 { return n })
	r.CounterFunc("total", "callback counter", func() float64 { return n + 1 })
	n = 42
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live 42") || !strings.Contains(sb.String(), "total 43") {
		t.Errorf("callbacks not read at exposition:\n%s", sb.String())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", nil).Observe(1)
	r.GaugeFunc("d", "", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	var g *Gauge
	g.Set(1)
	g.Dec()
	var h *Histogram
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles leaked values")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", nil, "worker", "w").Observe(0.001)
			}
		}()
	}
	// Scrape concurrently with writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 8000 {
		t.Errorf("counter = %v", got)
	}
	if got := r.Histogram("h_seconds", "", nil, "worker", "w").Count(); got != 8000 {
		t.Errorf("histogram count = %v", got)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help", "k", "v").Add(2)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"labels":{"k":"v"}`) {
		t.Errorf("snapshot json: %s", blob)
	}
	for _, m := range snap {
		if m.Name == "h_seconds" {
			if m.Value != 1 || m.Buckets["1"] != 1 || m.Buckets["+Inf"] != 1 {
				t.Errorf("histogram snapshot: %+v", m)
			}
		}
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Error("fresh context has trace ID")
	}
	ctx, id := EnsureTraceID(ctx)
	if len(id) != 16 || TraceID(ctx) != id {
		t.Errorf("trace id = %q", id)
	}
	ctx2, id2 := EnsureTraceID(ctx)
	if id2 != id || ctx2 != ctx {
		t.Error("EnsureTraceID re-minted on traced context")
	}
	if NewID() == NewID() {
		t.Error("NewID collision")
	}
}

func TestLoggerCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	base := NewLogger(&buf, slog.LevelInfo)
	ctx := WithLogger(WithTraceID(context.Background(), "abc123"), base)
	Logger(ctx).Info("hello")
	if !strings.Contains(buf.String(), `"trace_id":"abc123"`) {
		t.Errorf("log line missing trace id: %s", buf.String())
	}
	// Without a logger in context, Logger must not explode.
	Logger(context.Background()).Info("dropped")
}

func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if TraceID(r.Context()) == "" {
			t.Error("handler saw no trace ID")
		}
		RequestOf(r.Context()).Role = "Hazmat"
		if r.URL.Path == "/boom" {
			http.Error(w, "nope", http.StatusForbidden)
			return
		}
		_, _ = w.Write([]byte("ok"))
	})
	mux := http.NewServeMux()
	for pattern, label := range map[string]string{"/": "/ok", "/boom": "/boom"} {
		mux.Handle(pattern, Middleware(MiddlewareConfig{Registry: reg, Logger: logger, Route: label}, inner))
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/fine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get(TraceHeader)
	if traceID == "" {
		t.Error("no trace ID response header")
	}
	if !strings.Contains(buf.String(), traceID) {
		t.Errorf("request log missing trace id %s: %s", traceID, buf.String())
	}

	// Client-supplied trace IDs are propagated.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/boom", nil)
	req.Header.Set(TraceHeader, "feedfacecafebeef")
	resp2, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceHeader); got != "feedfacecafebeef" {
		t.Errorf("trace ID not adopted: %q", got)
	}

	if got := reg.Counter("grdf_http_requests_total", "", "route", "/ok", "code", "200").Value(); got != 1 {
		t.Errorf("200 counter = %v", got)
	}
	if got := reg.Counter("grdf_http_requests_total", "", "route", "/boom", "code", "403").Value(); got != 1 {
		t.Errorf("403 counter = %v", got)
	}
	if got := reg.Histogram("grdf_http_request_duration_seconds", "", nil, "route", "/ok").Count(); got != 1 {
		t.Errorf("latency observations = %v", got)
	}
	if got := reg.Gauge("grdf_http_in_flight_requests", "").Value(); got != 0 {
		t.Errorf("in-flight = %v", got)
	}

	// One line per request, carrying what the handler wrote on the record.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines for 2 requests:\n%s", len(lines), buf.String())
	}
	var line struct {
		TraceID string `json:"trace_id"`
		Route   string `json:"route"`
		Status  int    `json:"status"`
		Outcome string `json:"outcome"`
		Role    string `json:"role"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.TraceID != "feedfacecafebeef" || line.Route != "/boom" || line.Status != 403 ||
		line.Outcome != "error" || line.Role != "Hazmat" {
		t.Errorf("log line %+v", line)
	}
}

// TestMiddlewareAdoptsOnlyWellFormedIDs: a caller's trace and parent-span IDs
// are adopted only when they are 1–64 bytes of [0-9A-Za-z._-]. Anything else
// — here a tab, a quote, a backslash, 65 bytes — is replaced by a minted ID
// (or no remote parent), so no later scrape of /metrics carries an exemplar
// label the exposition format cannot escape.
func TestMiddlewareAdoptsOnlyWellFormedIDs(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(64)
	srv := httptest.NewServer(Middleware(MiddlewareConfig{Registry: reg, Route: "/q", Tracer: tracer},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer srv.Close()
	send := func(header, value string) (traceID, parent string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		req.Header.Set(header, value)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		traceID = resp.Header.Get(TraceHeader)
		td, ok := tracer.Trace(traceID)
		if !ok {
			t.Fatalf("trace %q not retained", traceID)
		}
		return traceID, td.Spans[0].ParentID
	}

	good := strings.Repeat("aZ9._-", 10) + "abcd" // 64 bytes
	if id, _ := send(TraceHeader, good); id != good {
		t.Errorf("well-formed trace ID %q not adopted: %q", good, id)
	}
	if _, parent := send(ParentSpanHeader, good); parent != good {
		t.Errorf("well-formed parent span %q not adopted: %q", good, parent)
	}
	for _, bad := range []string{"a\tb\"c\\d", "a\tb", `a"b`, good + "x"} {
		if id, _ := send(TraceHeader, bad); id == bad || len(id) != 16 {
			t.Errorf("trace ID %q: answered with %q, want a minted one", bad, id)
		}
		if _, parent := send(ParentSpanHeader, bad); parent != "" {
			t.Errorf("parent span %q adopted as %q", bad, parent)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if i := strings.Index(line, "trace_id="); i >= 0 && strings.ContainsAny(line[i:], "\t\\") {
			t.Errorf("exemplar the exposition format cannot carry: %s", line)
		}
	}
}
