package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Hierarchical span tracing. A request owns one trace: the HTTP middleware
// (or any other entry point) starts a root span via Tracer.StartTrace, and
// every layer below — decision engine, query cache, SPARQL join executor,
// federation fan-out, WAL — opens child spans with StartSpan(ctx, name).
// The parent/child relationship rides on the context, so no layer needs a
// tracer handle: an un-traced context yields nil spans whose methods no-op.
//
// When the root span ends, the completed span tree is published into the
// tracer's lock-striped ring buffer of recent traces (served at /v1/traces),
// and — when the root exceeds the slow threshold — logged wholesale as a
// structured slow-query record.

// ParentSpanHeader carries the caller's current span ID across process
// boundaries (federation peers), so a peer's root span parents correctly
// under the originating request next to the X-Trace-Id join key.
const ParentSpanHeader = "X-Parent-Span"

// maxSpansPerTrace bounds one trace's memory: a pathological query must not
// turn the trace buffer into an allocation amplifier. Spans beyond the cap
// are counted, not recorded.
const maxSpansPerTrace = 512

// SpanData is the immutable record of one completed span.
type SpanData struct {
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	TraceID  string    `json:"trace_id"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationUS is the span's monotonic wall time in microseconds.
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	// Counters carry per-span integrals: rows scanned, triples matched,
	// cache hits, retries — whatever the instrumented stage accumulates.
	Counters map[string]int64 `json:"counters,omitempty"`
	Failed   bool             `json:"failed,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// activeTrace accumulates the completed spans of one in-flight request.
type activeTrace struct {
	tracer  *Tracer // nil for detached (collector-only) traces
	traceID string

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

func (at *activeTrace) record(sd SpanData) {
	at.mu.Lock()
	if len(at.spans) >= maxSpansPerTrace {
		at.dropped++
	} else {
		at.spans = append(at.spans, sd)
	}
	at.mu.Unlock()
}

// Completed snapshots the spans recorded so far, in completion order. The
// EXPLAIN ANALYZE handler reads this mid-request, before the root span ends.
func (at *activeTrace) Completed() []SpanData {
	if at == nil {
		return nil
	}
	at.mu.Lock()
	out := make([]SpanData, len(at.spans))
	copy(out, at.spans)
	at.mu.Unlock()
	return out
}

// Span is one in-flight stage of a traced request. A nil *Span is valid and
// inert, so instrumented code never branches on "is tracing on".
type Span struct {
	trace  *activeTrace
	isRoot bool
	start  time.Time // monotonic anchor

	mu   sync.Mutex
	data SpanData
}

type spanCtx struct {
	trace *activeTrace
	span  *Span // current span (parent of children started from this ctx)
}

// activeSpanCtx returns the span context carried by ctx, or nil.
func activeSpanCtx(ctx context.Context) *spanCtx {
	sc, _ := ctx.Value(spanKey).(*spanCtx)
	return sc
}

// ActiveTrace returns the trace accumulator carried by ctx (nil when the
// request is not traced). Completed() on the result is always safe.
func ActiveTrace(ctx context.Context) *activeTrace {
	if sc := activeSpanCtx(ctx); sc != nil {
		return sc.trace
	}
	return nil
}

// CurrentSpanID returns the ID of the innermost open span on ctx, or "".
// It is the value to send as X-Parent-Span when calling out to a peer.
func CurrentSpanID(ctx context.Context) string {
	sc := activeSpanCtx(ctx)
	if sc == nil || sc.span == nil {
		return ""
	}
	return sc.span.data.SpanID
}

// newSpan builds a span bound to at with the given parent ID.
func newSpan(at *activeTrace, name, parentID string, isRoot bool) *Span {
	return &Span{
		trace:  at,
		isRoot: isRoot,
		start:  time.Now(),
		data: SpanData{
			SpanID:   NewID(),
			ParentID: parentID,
			TraceID:  at.traceID,
			Name:     name,
			Start:    time.Now(),
		},
	}
}

// StartSpan opens a child of the current span on ctx. When ctx carries no
// trace, it returns ctx unchanged and a nil span — every Span method is
// nil-safe, so callers never branch. The returned context parents further
// spans under the new one; End completes it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc := activeSpanCtx(ctx)
	if sc == nil {
		return ctx, nil
	}
	parent := ""
	if sc.span != nil {
		parent = sc.span.data.SpanID
	}
	sp := newSpan(sc.trace, name, parent, false)
	return context.WithValue(ctx, spanKey, &spanCtx{trace: sc.trace, span: sp}), sp
}

// StartDetachedTrace begins a collector-only trace: spans record into an
// accumulator readable via ActiveTrace(ctx).Completed(), but nothing is
// published to any ring buffer. It powers EXPLAIN ANALYZE on servers that
// run without a tracer. The root span still must be ended.
func StartDetachedTrace(ctx context.Context, name string) (context.Context, *Span) {
	ctx, id := EnsureTraceID(ctx)
	at := &activeTrace{traceID: id}
	sp := newSpan(at, name, "", true)
	return context.WithValue(ctx, spanKey, &spanCtx{trace: at, span: sp}), sp
}

// SetAttr attaches a bounded string attribute. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// Add accumulates delta into the named per-span counter. Nil-safe.
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Counters == nil {
		s.data.Counters = make(map[string]int64, 4)
	}
	s.data.Counters[counter] += delta
	s.mu.Unlock()
}

// Fail marks the span failed, recording err (nil keeps any earlier message).
// A failed child does not implicitly fail its parents: a routed request that
// moved on past a dead replica keeps a healthy root. Nil-safe.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Failed = true
	if err != nil {
		s.data.Error = err.Error()
	}
	s.mu.Unlock()
}

// ID returns the span's identifier ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// End completes the span, records it into its trace, and — for a root span —
// publishes the finished trace. It returns the elapsed time. Ending a span
// twice records it once; the second call only returns the elapsed time.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.data.DurationUS != 0 || s.trace == nil {
		s.mu.Unlock()
		return d
	}
	s.data.DurationUS = d.Microseconds()
	if s.data.DurationUS == 0 {
		s.data.DurationUS = 1 // sub-microsecond spans still count as ended
	}
	sd := s.data
	s.mu.Unlock()
	s.trace.record(sd)
	if s.isRoot && s.trace.tracer != nil {
		s.trace.tracer.publish(s.trace, sd, d)
	}
	return d
}

// ---------------------------------------------------------------------------
// Tracer: ring buffer of recent traces + slow-query log

// TraceData is one completed trace: the root summary plus every recorded
// span (completion order; the tree is reconstructed from ParentID links).
type TraceData struct {
	TraceID    string     `json:"trace_id"`
	Root       string     `json:"root"`
	Start      time.Time  `json:"start"`
	DurationUS int64      `json:"duration_us"`
	Failed     bool       `json:"failed,omitempty"`
	Spans      []SpanData `json:"spans"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// TraceSummary is the /v1/traces listing row.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Spans      int       `json:"spans"`
	Failed     bool      `json:"failed,omitempty"`
}

// traceStripes fixes the lock striping width (power of two).
const traceStripes = 16

type traceStripe struct {
	mu   sync.Mutex
	ring []*TraceData // fixed-capacity ring, nil slots until warm
	next int
}

// Tracer retains the last N completed traces in a lock-striped in-memory
// ring buffer and emits the slow-query log. Safe for concurrent use.
type Tracer struct {
	stripes [traceStripes]traceStripe

	slowMu   sync.RWMutex
	slow     time.Duration
	slowLog  *slog.Logger
	capacity int

	mTraces  *Counter
	mSlow    *Counter
	mDropped *Counter
}

// NewTracer returns a tracer retaining about capacity completed traces
// (rounded up to a multiple of the stripe count; 0 retains none — spans
// still run, feeding EXPLAIN ANALYZE and the slow-query log).
func NewTracer(capacity int) *Tracer {
	t := &Tracer{capacity: capacity}
	if capacity > 0 {
		per := (capacity + traceStripes - 1) / traceStripes
		for i := range t.stripes {
			t.stripes[i].ring = make([]*TraceData, per)
		}
	}
	return t
}

// Capacity returns the configured trace retention.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// SetSlowQueryLog arms the slow-query log: any trace whose root span runs
// longer than threshold is logged to l with its full span tree. A zero
// threshold (or nil logger) disarms it.
func (t *Tracer) SetSlowQueryLog(threshold time.Duration, l *slog.Logger) {
	if t == nil {
		return
	}
	t.slowMu.Lock()
	t.slow = threshold
	t.slowLog = l
	t.slowMu.Unlock()
}

// Instrument exports the tracer's own accounting into reg (nil-safe).
func (t *Tracer) Instrument(reg *Registry) *Tracer {
	if t == nil {
		return nil
	}
	t.mTraces = reg.Counter("grdf_traces_total", "Completed root spans recorded by the tracer.")
	t.mSlow = reg.Counter("grdf_slow_queries_total",
		"Traces whose root span exceeded the slow-query threshold.")
	t.mDropped = reg.Counter("grdf_trace_spans_dropped_total",
		"Spans discarded past the per-trace cap.")
	reg.GaugeFunc("grdf_trace_buffer_capacity", "Configured trace retention.",
		func() float64 { return float64(t.capacity) })
	return t
}

// StartTrace begins a traced request: it ensures a trace ID on ctx, opens
// the root span (parentID may carry a remote parent from X-Parent-Span), and
// binds the accumulator to the tracer so End publishes the finished trace.
// Nil-safe: a nil tracer degrades to a detached trace.
func (t *Tracer) StartTrace(ctx context.Context, name, parentID string) (context.Context, *Span) {
	ctx, id := EnsureTraceID(ctx)
	at := &activeTrace{tracer: t, traceID: id}
	sp := newSpan(at, name, parentID, true)
	return context.WithValue(ctx, spanKey, &spanCtx{trace: at, span: sp}), sp
}

// publish stores a completed trace into its ring stripe and runs the
// slow-query check. Called exactly once per root span End.
func (t *Tracer) publish(at *activeTrace, root SpanData, d time.Duration) {
	at.mu.Lock()
	spans := make([]SpanData, len(at.spans))
	copy(spans, at.spans)
	dropped := at.dropped
	at.mu.Unlock()

	td := &TraceData{
		TraceID:      at.traceID,
		Root:         root.Name,
		Start:        root.Start,
		DurationUS:   root.DurationUS,
		Failed:       root.Failed,
		Spans:        spans,
		DroppedSpans: dropped,
	}
	t.mTraces.Inc()
	if dropped > 0 {
		t.mDropped.Add(float64(dropped))
	}

	if t.capacity > 0 {
		st := &t.stripes[stripeOf(at.traceID)]
		st.mu.Lock()
		st.ring[st.next] = td
		st.next = (st.next + 1) % len(st.ring)
		st.mu.Unlock()
	}

	t.slowMu.RLock()
	slow, logTo := t.slow, t.slowLog
	t.slowMu.RUnlock()
	if slow > 0 && d > slow && logTo != nil {
		t.mSlow.Inc()
		logTo.Warn("slow query",
			"trace_id", td.TraceID,
			"root", td.Root,
			"duration_us", td.DurationUS,
			"threshold", slow.String(),
			"spans", len(td.Spans),
			"tree", renderTree(td))
	}
}

// stripeOf hashes a trace ID onto a stripe (FNV-1a over the hex chars).
func stripeOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % traceStripes)
}

// Traces lists the retained traces, newest first, capped at limit (<=0 means
// all retained).
func (t *Tracer) Traces(limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	var all []*TraceData
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for _, td := range st.ring {
			if td != nil {
				all = append(all, td)
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start.After(all[j].Start) })
	if limit > 0 && limit < len(all) {
		all = all[:limit]
	}
	out := make([]TraceSummary, len(all))
	for i, td := range all {
		out[i] = TraceSummary{
			TraceID:    td.TraceID,
			Root:       td.Root,
			Start:      td.Start,
			DurationUS: td.DurationUS,
			Spans:      len(td.Spans),
			Failed:     td.Failed,
		}
	}
	return out
}

// Trace returns the retained trace with the given ID.
func (t *Tracer) Trace(id string) (*TraceData, bool) {
	if t == nil || t.capacity == 0 {
		return nil, false
	}
	st := &t.stripes[stripeOf(id)]
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, td := range st.ring {
		if td != nil && td.TraceID == id {
			return td, true
		}
	}
	return nil, false
}

// renderTree flattens a trace into an indented one-line-per-span string for
// the slow-query log (human-scannable without a JSON decoder).
func renderTree(td *TraceData) string {
	children := make(map[string][]SpanData)
	for _, sd := range td.Spans {
		children[sd.ParentID] = append(children[sd.ParentID], sd)
	}
	var sb []byte
	var walk func(sd SpanData, depth int)
	walk = func(sd SpanData, depth int) {
		for i := 0; i < depth; i++ {
			sb = append(sb, ' ', ' ')
		}
		sb = append(sb, sd.Name...)
		sb = append(sb, ' ')
		sb = appendInt(sb, sd.DurationUS)
		sb = append(sb, "us"...)
		if sd.Failed {
			sb = append(sb, " FAILED"...)
		}
		sb = append(sb, '\n')
		for _, c := range children[sd.SpanID] {
			walk(c, depth+1)
		}
	}
	// Roots: spans whose parent is "" or not recorded locally (remote parent).
	local := make(map[string]bool, len(td.Spans))
	for _, sd := range td.Spans {
		local[sd.SpanID] = true
	}
	for _, sd := range td.Spans {
		if sd.ParentID == "" || !local[sd.ParentID] {
			walk(sd, 0)
		}
	}
	return string(sb)
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, buf[i:]...)
}
