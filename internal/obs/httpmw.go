package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HTTP middleware: the client-interface edge of the Fig. 3 service. Every
// request gets a trace ID (minted, or adopted from X-Trace-Id) and one
// record, Request, which the handler fills in as it goes. When the request
// closes the middleware books everything from that record, once: the route's
// latency histogram and status-code counter, the caller's books (the SLO
// window, the workload table, the audit trail) and one structured log line.
// No other code books a request, so the books describe the same requests
// with the same latency.

// Outcome is how a request ended, as the books count it.
type Outcome string

const (
	OutcomeOK    Outcome = "ok"
	OutcomeError Outcome = "error"
	// OutcomeShed is a request the admission gate refused: it never ran, so
	// it is no latency sample.
	OutcomeShed Outcome = "shed"
)

// Request is the one record of one HTTP request.
type Request struct {
	// Set by the middleware.
	Route   string // the mux pattern the middleware wraps
	TraceID string
	Status  int
	Bytes   int           // response body bytes
	Elapsed time.Duration // from the middleware's entry to the handler's return

	// Set by the handler, on the request's own goroutine.
	Role string // the role's IRI; the log line names it by its local name
	// Outcome defaults, at close, to OutcomeError for a status >= 400 and to
	// OutcomeOK otherwise.
	Outcome Outcome
	// Error is the message the request was answered with, when it failed.
	Error string
	// The SPARQL query the request carried, once it parsed (Kind is empty
	// before): its fingerprint, redacted canonical form and form label.
	Fingerprint uint64
	Canonical   string
	Kind        string
	// What evaluating the query did, when it was evaluated here: index
	// entries scanned and rows kept by the join steps, result size, whether
	// the planner reordered a BGP, and the worst est-vs-actual step ratio.
	RowsScanned    int64
	RowsOut        int64
	Solutions      int64
	Reordered      bool
	MaxMisestimate float64
	// The access decision the request was answered by, for the audit trail
	// (Action is empty when none was made): the action asked, the resource
	// (empty for a whole view or a batch over several), allowed and full,
	// the rules that fired and the generation of the data judged. Rules may
	// be shared with the engine and is read-only.
	Action, Resource string
	Allowed, Full    bool
	Rules            []string
	Generation       uint64
}

// RequestOf returns the record the middleware opened for ctx's request.
// Outside one it returns a record nobody books, so a handler writes to it
// without checking.
func RequestOf(ctx context.Context) *Request {
	if rec, _ := ctx.Value(requestKey).(*Request); rec != nil {
		return rec
	}
	return &Request{}
}

// MiddlewareConfig configures Middleware. Zero-value fields degrade
// gracefully: a nil Registry records nothing, a nil Logger logs nothing.
type MiddlewareConfig struct {
	// Registry receives http metrics (nil disables).
	Registry *Registry
	// Logger receives one line per request (nil disables).
	Logger *slog.Logger
	// Route is the label value of every request this middleware wraps —
	// the mux pattern it is mounted on. One middleware per pattern keeps the
	// label bounded: raw paths with IDs would explode series cardinality.
	Route string
	// Panic writes the 500 response after a recovered handler panic, when
	// nothing has been written yet (nil falls back to a plain 500). The
	// recovery itself — counter, stack-trace log, keeping the connection
	// and process alive — happens regardless.
	Panic func(w http.ResponseWriter, r *http.Request, v any)
	// Tracer, when set, opens a root span per request (named after the
	// route), adopting X-Parent-Span as a remote parent so a federation
	// peer's tree hangs under the originating request.
	Tracer *Tracer
	// Books receive every closed record, in order: an SLOEngine, a workload
	// table (see internal/obs/workload), an audit trail.
	Books []interface{ Observe(*Request) }
}

// statusWriter writes the response's status code and body bytes on the
// request's record.
type statusWriter struct {
	http.ResponseWriter
	rec *Request
}

func (w *statusWriter) WriteHeader(code int) {
	if w.rec.Status == 0 {
		w.rec.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.rec.Status == 0 {
		w.rec.Status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.rec.Bytes += n
	return n, err
}

// Middleware wraps next with panic recovery, tracing, metrics and logging.
// A handler panic is contained to its request: the connection gets a 500
// (via cfg.Panic when set), grdf_http_panics_total increments, and the
// stack is logged — the server keeps serving.
func Middleware(cfg MiddlewareConfig, next http.Handler) http.Handler {
	reg := cfg.Registry
	inFlight := reg.Gauge("grdf_http_in_flight_requests",
		"Requests currently being served.")
	panics := reg.Counter("grdf_http_panics_total",
		"Handler panics recovered by the middleware.")
	logger := cfg.Logger
	if logger == nil {
		logger = NopLogger()
	}
	rt := cfg.Route
	// The route is fixed per middleware, so its latency histogram is resolved
	// once — on the first request rather than here, so a route nobody has
	// called stays out of the exposition. The same goes for the counter of
	// each status code the route answers with.
	duration := sync.OnceValue(func() *Histogram {
		return reg.Histogram("grdf_http_request_duration_seconds",
			"HTTP request latency by route.", nil, "route", rt)
	})
	var byCode sync.Map // status code → *Counter
	requests := func(code int) *Counter {
		if c, ok := byCode.Load(code); ok {
			return c.(*Counter)
		}
		c, _ := byCode.LoadOrStore(code, reg.Counter("grdf_http_requests_total",
			"Completed HTTP requests.", "route", rt, "code", strconv.Itoa(code)))
		return c.(*Counter)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &Request{Route: rt, TraceID: r.Header.Get(TraceHeader)}
		if !validID(rec.TraceID) {
			rec.TraceID = NewID()
		}
		ctx := context.WithValue(r.Context(), requestKey, rec)
		ctx = WithLogger(WithTraceID(ctx, rec.TraceID), logger)
		w.Header().Set(TraceHeader, rec.TraceID)

		var root *Span
		if cfg.Tracer != nil {
			parent := r.Header.Get(ParentSpanHeader)
			if !validID(parent) {
				parent = ""
			}
			ctx, root = cfg.Tracer.StartTrace(ctx, "http "+rt, parent)
		}

		inFlight.Inc()
		sw := &statusWriter{ResponseWriter: w, rec: rec}
		req := r.WithContext(ctx)
		// The record closes deferred so a panicking handler still books its
		// request before the recovery turns it into a 500.
		defer func() {
			if v := recover(); v != nil {
				panics.Inc()
				Logger(ctx).Error("handler panic",
					"route", rt, "panic", fmt.Sprint(v),
					"stack", string(debug.Stack()))
				if rec.Status == 0 {
					// Nothing written yet: the response is still ours.
					if cfg.Panic != nil {
						cfg.Panic(sw, req, v)
					}
					if rec.Status == 0 {
						sw.WriteHeader(http.StatusInternalServerError)
					}
				}
			}
			inFlight.Dec()
			if rec.Status == 0 {
				rec.Status = http.StatusOK
			}
			rec.Elapsed = time.Since(start)
			if rec.Outcome == "" {
				rec.Outcome = OutcomeOK
				if rec.Status >= 400 {
					rec.Outcome = OutcomeError
				}
			}
			if root != nil {
				root.SetAttr("method", r.Method)
				root.SetAttr("status", strconv.Itoa(rec.Status))
				if rec.Status >= 500 {
					root.Fail(nil)
				}
				root.End()
			}
			duration().ObserveWithExemplar(rec.Elapsed.Seconds(), rec.TraceID)
			requests(rec.Status).Inc()
			for _, book := range cfg.Books {
				book.Observe(rec)
			}
			logRequest(ctx, logger, r, rec)
		}()
		next.ServeHTTP(sw, req)
	})
}

// logRequest writes the request's one log line: at warn level when it failed
// on the server's side, at info otherwise.
func logRequest(ctx context.Context, l *slog.Logger, r *http.Request, rec *Request) {
	level := slog.LevelInfo
	if rec.Status >= 500 {
		level = slog.LevelWarn
	}
	if !l.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 14)
	attrs = append(attrs,
		slog.String("trace_id", rec.TraceID),
		slog.String("method", r.Method),
		slog.String("route", rec.Route),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.Status),
		slog.Int("bytes", rec.Bytes),
		slog.Int64("duration_us", rec.Elapsed.Microseconds()),
		slog.String("outcome", string(rec.Outcome)))
	if rec.Role != "" {
		attrs = append(attrs, slog.String("role", rec.Role[strings.LastIndexAny(rec.Role, "#/")+1:]))
	}
	if rec.Kind != "" {
		attrs = append(attrs,
			slog.String("fingerprint", fmt.Sprintf("%016x", rec.Fingerprint)),
			slog.String("kind", rec.Kind),
			slog.Int64("solutions", rec.Solutions))
	}
	if rec.Error != "" {
		attrs = append(attrs, slog.String("error", rec.Error))
	}
	l.LogAttrs(ctx, level, "http request", attrs...)
}
