// Package federation routes a query to one of several G-SACS replicas.
//
// The replicas hold one dataset: followers of one leader's WAL. Aggregating
// two organizations' data (the paper's Section 7.1 hydrology and chemical
// stores) is done at the graph, by ingest into one store (grdf.Aggregate),
// so joins, entailments and access decisions run over the merged graph. A
// router therefore never combines answers: each read goes to one replica,
// and that replica's status, Content-Type and body go back to the client.
//
// The Federator takes the sources in order from a rotating start and moves
// on past a sick one, under a resilience stack:
//
//   - per-source attempt deadlines,
//   - retry with exponential backoff + jitter, gated by a token-bucket
//     retry budget and an error classification (only transient failures
//     are retried),
//   - a three-state circuit breaker per source (closed → open on repeated
//     failure, half-open probes after a cooldown).
//
// RemoteSource speaks the v1 HTTP API of a replica; FaultySource wraps a
// Source and deterministically injects latency/errors/hangs/garbage for
// chaos testing.
package federation

import (
	"context"
	"errors"
)

// Source is one replica a Federator routes to.
//
// Get sends the read req and returns the answer. A status that says "ask
// elsewhere" (5xx, 429, 408) is an error, as is a transport failure; any
// other status is the replica's answer. Implementations must honor ctx
// cancellation and be safe for concurrent use.
type Source interface {
	Name() string
	Get(ctx context.Context, req Request) (*Answer, error)
}

// Request is one read a router forwards, as the client sent it.
type Request struct {
	// Path is the read route: /v1/query, /v1/view or /v1/resource.
	Path string
	// RawQuery is the URL query (role, q, explain, iri, format, ...).
	RawQuery string
	// IfNoneMatch is the client's If-None-Match header, passed on.
	IfNoneMatch string
}

// QueryPath is the route whose answers must be JSON.
const QueryPath = "/v1/query"

// Answer is a replica's answer to a read, as it came over the wire.
type Answer struct {
	Status      int
	ContentType string
	ETag        string
	Body        []byte
}

// ErrAllSourcesFailed is wrapped by Federator.Forward when no source answered.
var ErrAllSourcesFailed = errors.New("federation: all sources failed")
