package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// HTTP middleware: the client-interface edge of the Fig. 3 service. Every
// request gets a trace ID (minted, or adopted from X-Trace-Id), an
// in-flight gauge increment, a per-route latency observation, a
// status-code-labelled request counter, and one structured log line.

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
	// SLO, when set, receives one (route, latency, status) observation
	// per request for sliding-window objective tracking.
	SLO *SLOEngine
}

// statusWriter captures the response status code and bytes written.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
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
	// called stays out of the exposition.
	duration := sync.OnceValue(func() *Histogram {
		return reg.Histogram("grdf_http_request_duration_seconds",
			"HTTP request latency by route.", nil, "route", rt)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := r.Header.Get(TraceHeader)
		if traceID == "" || len(traceID) > 64 {
			traceID = NewID()
		}
		ctx := WithLogger(WithTraceID(r.Context(), traceID), logger)
		w.Header().Set(TraceHeader, traceID)

		var root *Span
		if cfg.Tracer != nil {
			parent := r.Header.Get(ParentSpanHeader)
			if len(parent) > 64 {
				parent = ""
			}
			ctx, root = cfg.Tracer.StartTrace(ctx, "http "+rt, parent)
		}

		inFlight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		req := r.WithContext(ctx)
		// The accounting runs deferred so a panicking handler still records
		// its request before the recovery turns it into a 500.
		defer func() {
			if v := recover(); v != nil {
				panics.Inc()
				Logger(ctx).Error("handler panic",
					"route", rt, "panic", fmt.Sprint(v),
					"stack", string(debug.Stack()))
				if sw.status == 0 {
					// Nothing written yet: the response is still ours.
					if cfg.Panic != nil {
						cfg.Panic(sw, req, v)
					}
					if sw.status == 0 {
						sw.WriteHeader(http.StatusInternalServerError)
					}
				}
			}
			inFlight.Dec()
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			elapsed := time.Since(start)
			if root != nil {
				root.SetAttr("method", r.Method)
				root.SetAttr("status", itoa(sw.status))
				if sw.status >= 500 {
					root.Fail(nil)
				}
				root.End()
			}
			cfg.SLO.Record(rt, elapsed, sw.status)
			reg.Counter("grdf_http_requests_total", "Completed HTTP requests.",
				"route", rt, "code", itoa(sw.status)).Inc()
			duration().ObserveWithExemplar(elapsed.Seconds(), traceID)
			Logger(ctx).Info("http request",
				"method", r.Method,
				"route", rt,
				"path", r.URL.Path,
				"status", sw.status,
				"bytes", sw.bytes,
				"duration_us", elapsed.Microseconds(),
			)
		}()
		next.ServeHTTP(sw, req)
	})
}

// itoa renders small positive ints without strconv allocation games — status
// codes are three digits.
func itoa(v int) string {
	if v < 0 {
		v = 0
	}
	buf := [8]byte{}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}
