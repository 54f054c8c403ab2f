package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestRemoteSourceTraceHeaders: a traced context must reach the peer as
// X-Trace-Id plus X-Parent-Span (the caller's current span, so the peer's
// root parents under our fed.source span); an untraced context sends neither.
func TestRemoteSourceTraceHeaders(t *testing.T) {
	type seen struct{ traceID, parentSpan string }
	headers := make(chan seen, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers <- seen{
			traceID:    r.Header.Get(obs.TraceHeader),
			parentSpan: r.Header.Get(obs.ParentSpanHeader),
		}
		w.Write([]byte(`{"head":{"vars":[]},"results":[]}`))
	}))
	defer peer.Close()

	src := NewRemoteSource("peer", peer.URL, nil)

	tr := obs.NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "req", "")
	ctx, span := obs.StartSpan(ctx, "fed.source")
	if _, err := src.Get(ctx, Request{Path: QueryPath, RawQuery: "q=x"}); err != nil {
		t.Fatal(err)
	}
	got := <-headers
	if got.traceID != obs.TraceID(ctx) {
		t.Errorf("peer saw trace id %q, want %q", got.traceID, obs.TraceID(ctx))
	}
	if got.parentSpan != span.ID() {
		t.Errorf("peer saw parent span %q, want the caller's span %q", got.parentSpan, span.ID())
	}
	span.End()
	root.End()

	if _, err := src.Get(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"}); err != nil {
		t.Fatal(err)
	}
	got = <-headers
	if got.traceID != "" || got.parentSpan != "" {
		t.Errorf("untraced request leaked headers: %+v", got)
	}
}

// TestFederatorPropagatesSpanToPeers exercises the same propagation through
// the router: a peer that fails and the peer that answers after it must both
// observe the shared trace ID and a parent span of the originating trace.
func TestFederatorPropagatesSpanToPeers(t *testing.T) {
	type seen struct{ traceID, parentSpan string }
	headers := make(chan seen, 2)
	peer := func(status int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			headers <- seen{
				traceID:    r.Header.Get(obs.TraceHeader),
				parentSpan: r.Header.Get(obs.ParentSpanHeader),
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"head":{"vars":[]},"results":[]}`))
		}))
	}
	p1 := peer(http.StatusServiceUnavailable)
	defer p1.Close()
	p2 := peer(http.StatusOK)
	defer p2.Close()

	fed, err := New(Config{Retry: RetryConfig{MaxAttempts: 1}},
		NewRemoteSource("p1", p1.URL, nil),
		NewRemoteSource("p2", p2.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "req", "")
	if _, err := fed.Forward(ctx, Request{Path: QueryPath, RawQuery: "q=x"}); err != nil {
		t.Fatal(err)
	}
	root.End()

	td, ok := tr.Trace(obs.TraceID(ctx))
	if !ok {
		t.Fatal("trace not retained")
	}
	spanIDs := map[string]bool{}
	for _, sd := range td.Spans {
		spanIDs[sd.SpanID] = true
	}
	for i := 0; i < 2; i++ {
		got := <-headers
		if got.traceID != obs.TraceID(ctx) {
			t.Errorf("peer %d saw trace id %q, want %q", i, got.traceID, obs.TraceID(ctx))
		}
		if !spanIDs[got.parentSpan] {
			t.Errorf("peer %d saw parent span %q, not a span of the originating trace",
				i, got.parentSpan)
		}
	}
}
