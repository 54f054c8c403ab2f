package obs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNilSafety: every Span method must no-op on nil, and StartSpan on an
// untraced context must return the context unchanged with a nil span — the
// contract that lets instrumented code skip "is tracing on" branches.
func TestSpanNilSafety(t *testing.T) {
	ctx := context.Background()
	out, sp := StartSpan(ctx, "noop")
	if sp != nil {
		t.Fatalf("StartSpan on untraced ctx returned %v, want nil span", sp)
	}
	if out != ctx {
		t.Error("StartSpan on untraced ctx did not return the context unchanged")
	}
	sp.SetAttr("k", "v")
	sp.Add("c", 1)
	sp.Fail(errors.New("x"))
	if sp.ID() != "" {
		t.Errorf("nil span ID = %q, want empty", sp.ID())
	}
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if at := ActiveTrace(ctx); at != nil {
		t.Errorf("ActiveTrace on untraced ctx = %v, want nil", at)
	}
	if id := CurrentSpanID(ctx); id != "" {
		t.Errorf("CurrentSpanID on untraced ctx = %q, want empty", id)
	}
	var nilTracer *Tracer
	if c := nilTracer.Capacity(); c != 0 {
		t.Errorf("nil tracer capacity = %d", c)
	}
	nilTracer.SetSlowQueryLog(time.Second, nil)
	if got := nilTracer.Traces(5); got != nil {
		t.Errorf("nil tracer Traces = %v", got)
	}
}

// TestSpanTreeParentage builds a three-level tree through one trace and
// checks the recorded ParentID links and the counters/attrs round-trip.
func TestSpanTreeParentage(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartTrace(context.Background(), "http /v1/query", "")
	if got := CurrentSpanID(ctx); got != root.ID() {
		t.Fatalf("CurrentSpanID = %q, want root %q", got, root.ID())
	}

	cctx, child := StartSpan(ctx, "sparql.eval")
	child.SetAttr("kind", "select")
	_, grand := StartSpan(cctx, "sparql.bgp.step")
	grand.Add("rows_scanned", 41)
	grand.Add("rows_scanned", 1)
	grand.End()
	child.End()
	// Ending a span twice must not duplicate its record.
	child.End()
	root.End()

	td, ok := tr.Trace(TraceID(ctx))
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("recorded %d spans, want 3: %+v", len(td.Spans), td.Spans)
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
		if sd.TraceID != td.TraceID {
			t.Errorf("span %s trace id %q, want %q", sd.Name, sd.TraceID, td.TraceID)
		}
		if sd.DurationUS <= 0 {
			t.Errorf("span %s duration %d, want > 0", sd.Name, sd.DurationUS)
		}
	}
	if byName["http /v1/query"].ParentID != "" {
		t.Error("root span has a parent")
	}
	if byName["sparql.eval"].ParentID != byName["http /v1/query"].SpanID {
		t.Error("sparql.eval not parented under the root")
	}
	if byName["sparql.bgp.step"].ParentID != byName["sparql.eval"].SpanID {
		t.Error("sparql.bgp.step not parented under sparql.eval")
	}
	if byName["sparql.bgp.step"].Counters["rows_scanned"] != 42 {
		t.Errorf("counters = %v, want rows_scanned 42", byName["sparql.bgp.step"].Counters)
	}
	if byName["sparql.eval"].Attrs["kind"] != "select" {
		t.Errorf("attrs = %v", byName["sparql.eval"].Attrs)
	}
	if td.Root != "http /v1/query" || td.DurationUS <= 0 {
		t.Errorf("trace summary = %+v", td)
	}
}

// TestSpanRemoteParent: a root span started with a remote parent (the
// X-Parent-Span path) must record that parent ID even though no local span
// carries it.
func TestSpanRemoteParent(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartTrace(context.Background(), "http /v1/query", "feedbeef01234567")
	root.End()
	td, ok := tr.Trace(TraceID(ctx))
	if !ok {
		t.Fatal("trace not retained")
	}
	if td.Spans[0].ParentID != "feedbeef01234567" {
		t.Errorf("remote parent = %q", td.Spans[0].ParentID)
	}
}

// TestDetachedTrace: spans accumulate and are readable mid-flight via
// ActiveTrace(ctx).Completed(), but nothing reaches any ring buffer.
func TestDetachedTrace(t *testing.T) {
	ctx, root := StartDetachedTrace(context.Background(), "explain.analyze")
	_, sp := StartSpan(ctx, "sparql.bgp.step")
	sp.End()
	got := ActiveTrace(ctx).Completed()
	if len(got) != 1 || got[0].Name != "sparql.bgp.step" {
		t.Fatalf("Completed() = %+v, want the one finished child", got)
	}
	root.End()
	if got := ActiveTrace(ctx).Completed(); len(got) != 2 {
		t.Fatalf("after root End: %d spans, want 2", len(got))
	}
}

// TestTracerCapacityZero: a zero-capacity tracer runs spans (explain=analyze
// and the slow log depend on it) but retains nothing.
func TestTracerCapacityZero(t *testing.T) {
	tr := NewTracer(0)
	ctx, root := tr.StartTrace(context.Background(), "root", "")
	_, sp := StartSpan(ctx, "child")
	sp.End()
	if got := len(ActiveTrace(ctx).Completed()); got != 1 {
		t.Fatalf("completed spans = %d, want 1", got)
	}
	root.End()
	if got := tr.Traces(0); len(got) != 0 {
		t.Fatalf("Traces on capacity-0 tracer = %+v", got)
	}
	if _, ok := tr.Trace(TraceID(ctx)); ok {
		t.Error("Trace lookup hit on capacity-0 tracer")
	}
}

// TestTracerRingEviction fills the ring well past capacity and checks
// retention stays bounded, newest-first ordering, and by-ID lookup for a
// retained trace.
func TestTracerRingEviction(t *testing.T) {
	const capacity = 32
	tr := NewTracer(capacity)
	var lastID string
	for i := 0; i < 10*capacity; i++ {
		ctx, root := tr.StartTrace(context.Background(), fmt.Sprintf("req-%d", i), "")
		root.End()
		lastID = TraceID(ctx)
	}
	got := tr.Traces(0)
	// Striping rounds capacity up to a multiple of the stripe count.
	max := ((capacity + 15) / 16) * 16
	if len(got) == 0 || len(got) > max {
		t.Fatalf("retained %d traces, want 1..%d", len(got), max)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start.After(got[i-1].Start) {
			t.Fatal("Traces not sorted newest-first")
		}
	}
	if limited := tr.Traces(5); len(limited) != 5 {
		t.Errorf("Traces(5) returned %d", len(limited))
	}
	if _, ok := tr.Trace(lastID); !ok {
		t.Error("most recent trace not retrievable by ID")
	}
	if _, ok := tr.Trace("0000000000000000"); ok {
		t.Error("lookup hit for a never-recorded ID")
	}
}

// TestSpanCapAndDrop: spans past maxSpansPerTrace are counted, not recorded,
// and the drop shows up on the published trace.
func TestSpanCapAndDrop(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16).Instrument(reg)
	ctx, root := tr.StartTrace(context.Background(), "root", "")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "leaf")
		sp.End()
	}
	root.End()
	td, ok := tr.Trace(TraceID(ctx))
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(td.Spans) != maxSpansPerTrace {
		t.Errorf("recorded %d spans, want the %d cap", len(td.Spans), maxSpansPerTrace)
	}
	// root + extra leaves over the cap were dropped.
	if td.DroppedSpans != 11 {
		t.Errorf("dropped = %d, want 11", td.DroppedSpans)
	}
	if got := reg.Counter("grdf_trace_spans_dropped_total", "").Value(); got != 11 {
		t.Errorf("grdf_trace_spans_dropped_total = %v, want 11", got)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines — children
// racing on shared traces, whole traces racing into the same stripes — and is
// meaningful under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartTrace(context.Background(), "req", "")
				var inner sync.WaitGroup
				for c := 0; c < 4; c++ {
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						_, sp := StartSpan(ctx, "child")
						sp.Add("n", int64(c))
						sp.End()
					}(c)
				}
				inner.Wait()
				root.End()
				_ = tr.Traces(10)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Traces(0); len(got) == 0 {
		t.Fatal("no traces retained after concurrent load")
	}
}

// TestSlowQueryLog arms the slow-query log with a microscopic threshold and
// checks the record carries the trace ID and the rendered tree; a disarmed
// tracer must stay quiet.
func TestSlowQueryLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	reg := NewRegistry()
	tr := NewTracer(16).Instrument(reg)
	tr.SetSlowQueryLog(time.Nanosecond, logger)

	ctx, root := tr.StartTrace(context.Background(), "http /v1/query", "")
	_, sp := StartSpan(ctx, "sparql.eval")
	sp.Fail(errors.New("boom"))
	sp.End()
	time.Sleep(2 * time.Millisecond)
	root.End()

	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query record: %q", out)
	}
	if !strings.Contains(out, TraceID(ctx)) {
		t.Error("record missing the trace id")
	}
	if !strings.Contains(out, "sparql.eval") || !strings.Contains(out, "FAILED") {
		t.Errorf("rendered tree missing span lines: %q", out)
	}

	buf.Reset()
	tr.SetSlowQueryLog(0, nil)
	_, root2 := tr.StartTrace(context.Background(), "quiet", "")
	time.Sleep(time.Millisecond)
	root2.End()
	if buf.Len() != 0 {
		t.Errorf("disarmed tracer still logged: %q", buf.String())
	}
	if got := reg.Counter("grdf_slow_queries_total", "").Value(); got != 1 {
		t.Errorf("grdf_slow_queries_total = %v, want the one slow trace", got)
	}
}

// TestTracerInstrument checks the tracer's own accounting metrics.
func TestTracerInstrument(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16).Instrument(reg)
	_, root := tr.StartTrace(context.Background(), "r", "")
	root.End()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "grdf_traces_total 1") {
		t.Errorf("grdf_traces_total missing:\n%s", out)
	}
	if !strings.Contains(out, "grdf_trace_buffer_capacity 16") {
		t.Errorf("grdf_trace_buffer_capacity missing:\n%s", out)
	}
}

// TestHistogramExemplar: a histogram observation tagged with a trace ID must
// surface as an OpenMetrics-style exemplar on its bucket line.
func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("grdf_http_request_duration_seconds", "t", nil, "route", "/v1/query")
	h.ObserveWithExemplar(0.003, "abcdef0123456789")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="abcdef0123456789"}`) {
		t.Fatalf("no exemplar in exposition:\n%s", out)
	}
	// The exemplar must sit on a bucket line, after the bucket's own value.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "trace_id=") && !strings.Contains(line, "_bucket") {
			t.Errorf("exemplar on a non-bucket line: %q", line)
		}
	}
	// A plain Observe must not invent exemplars on other histograms.
	reg2 := NewRegistry()
	reg2.Histogram("h2", "t", nil).Observe(0.1)
	sb.Reset()
	if err := reg2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "trace_id=") {
		t.Error("plain Observe produced an exemplar")
	}
}
