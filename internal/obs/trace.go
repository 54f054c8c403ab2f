package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// Request-scoped tracing. A trace ID is minted (or adopted from a well-formed
// X-Trace-Id request header) by the HTTP middleware, stored in the request
// context, echoed in the response header, and attached to every structured
// log line — so one ID follows a query from the client interface through the
// decision engine, cache, reasoner and store, matching the Fig. 3 request
// path end to end. Spans (span.go) time the named stages within a trace.

// TraceHeader is the HTTP header carrying the trace ID in both directions.
const TraceHeader = "X-Trace-Id"

type ctxKey int

const (
	traceIDKey ctxKey = iota
	loggerKey
	spanKey
	requestKey
)

// validID reports whether a caller-supplied trace or span ID may be adopted:
// 1–64 bytes of [0-9A-Za-z._-]. Such an ID goes into response and peer
// headers, log lines, /v1/traces keys and exemplar labels as it is, with
// nothing in it any of those would have to escape.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// NewID returns a 16-hex-char random identifier.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; degrade to a
		// fixed marker rather than take the process down over telemetry.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithTraceID returns ctx carrying the given trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey, id)
}

// TraceID returns the trace ID carried by ctx, or "" when absent.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey).(string)
	return id
}

// EnsureTraceID returns ctx with a trace ID, minting one when absent.
func EnsureTraceID(ctx context.Context) (context.Context, string) {
	if id := TraceID(ctx); id != "" {
		return ctx, id
	}
	id := NewID()
	return WithTraceID(ctx, id), id
}
