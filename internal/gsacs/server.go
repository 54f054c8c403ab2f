package gsacs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/federation"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Server is the G-SACS front-end of Fig. 3: "provides the front-end
// interface to accept client requests and respond back. This module only
// defines communication points and hides the internal details of the system
// from clients."
//
// The HTTP surface is versioned under /v1/ (see the README's "HTTP API v1"
// section) and declared in one place, routeTable: a route's handler,
// methods and gates are whatever its row says. Errors are returned as a
// uniform JSON envelope {"error": ..., "code": ..., "trace_id": ...}.
//
// Every request flows through the obs middleware: it gets a trace ID
// (echoed in the X-Trace-Id response header and attached to every log line
// for the request) and one record (obs.Request), which the handlers fill in —
// role, the access decision, query shape and evaluation stats, outcome — and
// from which the middleware books the route's latency histogram and
// status-code counter, the SLO window, the workload table, the audit trail
// (routes that take a role) and the request's log line. The registry is
// scraped at /metrics.
type Server struct {
	engine       *Engine
	repo         *OntoRepository
	fed          *federation.Federator
	mux          *http.ServeMux
	metrics      *obs.Registry
	logger       *slog.Logger
	queryTimeout time.Duration
	maxBodyBytes int64
	// ready gates every route not marked alwaysReady while the durable state
	// is still being recovered (nil = always ready).
	ready func() bool
	// pprof mounts /debug/pprof/ (see WithPprof).
	pprof bool
	// tracer, when set, records a span tree per request and serves it at
	// /v1/traces (see WithTracer).
	tracer *obs.Tracer
	// walStatus, when set, contributes the durability block to /healthz
	// (see WithWALStatus).
	walStatus func() any
	// slo, when set, receives every request's (route, latency, status) and
	// serves the objective report at /v1/slo (see WithSLO).
	slo *obs.SLOEngine
	// replLeader, when set, mounts the WAL replication endpoints
	// (/v1/wal/stream, /v1/wal/snapshot) served by the returned leader; a
	// nil return answers 503 while durable recovery is still running
	// (see WithReplLeader).
	replLeader func() *repl.Leader
	// replStatus, when set, marks this server a read replica: /healthz
	// carries the replication block and readiness follows the follower's
	// lag gate (see WithReplStatus).
	replStatus func() repl.FollowerStatus
	// leaderURL, when set, answers every leaderOnly route with 421 and a
	// Location header pointing at the leader (see WithMutationRedirect).
	leaderURL string
	// admission, when set, gates every route that names an admission class
	// behind the adaptive concurrency limiter — over-capacity requests
	// answer 429 with Retry-After instead of queueing without bound (see
	// WithAdmission).
	admission *admission.Controller
	// priorityHeader names the request header clients use to tag a
	// priority tier ("high" / "normal" / "low"); empty disables the
	// header.
	priorityHeader string
	// highRoles maps resolved role IRIs onto the High admission tier —
	// the paper's emergency-response roles, whose queries must outlive
	// best-effort traffic under shed.
	highRoles map[rdf.IRI]bool
	// workload, when set, books every request that carried a query under its
	// fingerprint and serves the table at /v1/queries (see WithWorkload).
	workload *workload.Table
	// profiler, when set, serves the burn-triggered capture ring at
	// /v1/profiles (see WithProfiler).
	profiler *prof.Profiler
	// cluster, when set, serves the fleet rollup at /v1/cluster (see
	// WithCluster).
	cluster *clusterRollup
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithMetrics wires a registry into the HTTP middleware and mounts its
// Prometheus exposition at /metrics.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// WithLogger enables structured per-request logging.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// WithPprof mounts net/http/pprof profile endpoints under /debug/pprof/.
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// WithQueryTimeout bounds the evaluation of each /v1/query request; a query
// exceeding the deadline is cancelled and answered with 504 and code
// "timeout". Zero disables the bound.
func WithQueryTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.queryTimeout = d }
}

// WithFederator makes the server a router: /v1/query, /v1/view and
// /v1/resource go to one of the federator's replicas and are answered with
// its bytes. A read fails only when every replica does.
func WithFederator(f *federation.Federator) ServerOption {
	return func(s *Server) { s.fed = f }
}

// WithMaxBodyBytes bounds the /v1/mutate request body; an oversized body is
// answered with 413 and code "body_too_large". Zero disables the bound.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) { s.maxBodyBytes = n }
}

// WithReadiness installs a readiness probe. While it returns false, every
// route not marked alwaysReady answers 503 with code "recovering",
// and /healthz reports the recovering status without touching the engine —
// the server can therefore start listening immediately and recover its
// durable state in the background.
func WithReadiness(ready func() bool) ServerOption {
	return func(s *Server) { s.ready = ready }
}

// WithTracer records a hierarchical span tree for every request (root span
// in the middleware, child spans in the decision engine, query cache, SPARQL
// join executor, the router's forward and WAL) and mounts the inspection
// surface: /v1/traces lists recent traces, /v1/traces/{id} renders one tree.
func WithTracer(t *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithWALStatus contributes a durability block to /healthz — typically
// wal.Repository.WALStatus wrapped in a closure. The function must be safe
// to call concurrently and may return nil while the repository is still
// being opened.
func WithWALStatus(status func() any) ServerOption {
	return func(s *Server) { s.walStatus = status }
}

// WithSLO tracks every request against service-level objectives: the
// middleware feeds the engine one observation per request, /v1/slo serves
// the windowed quantile / burn-rate report, and grdf_slo_* gauges are
// registered on the server's metrics registry.
func WithSLO(e *obs.SLOEngine) ServerOption {
	return func(s *Server) { s.slo = e }
}

// WithReplLeader mounts the WAL-shipping endpoints — GET /v1/wal/stream
// (long-poll record stream) and GET /v1/wal/snapshot (bootstrap state
// transfer) — on whatever leader get() currently returns. A nil return
// (durable recovery still running, so the repository is not yet open)
// answers 503 "recovering". Both routes are excluded from SLO accounting:
// a caught-up stream request parks on purpose for the whole poll window.
func WithReplLeader(get func() *repl.Leader) ServerOption {
	return func(s *Server) { s.replLeader = get }
}

// WithReplStatus marks this server a read replica fed by status(): /healthz
// gains a "replication" block, and readiness is gated on the follower's
// state — 503 "recovering" before the bootstrap snapshot lands, 503
// "lagging" whenever replication lag exceeds the configured bound, so a
// load balancer health-checking /healthz routes around a stale replica.
func WithReplStatus(status func() repl.FollowerStatus) ServerOption {
	return func(s *Server) { s.replStatus = status }
}

// WithMutationRedirect rejects /v1/mutate with 421 "not_leader" and a
// Location header addressed to the leader — a follower's store is a replica;
// writing to it would fork history. Clients retry the same request against
// the Location target.
func WithMutationRedirect(leaderURL string) ServerOption {
	return func(s *Server) { s.leaderURL = leaderURL }
}

// AdmissionConfig wires a Controller into the server.
type AdmissionConfig struct {
	// Controller is the adaptive limiter (required).
	Controller *admission.Controller
	// PriorityHeader names the header clients use to tag a request's tier
	// ("high" / "normal" / "low"; see admission.ParsePriority). Empty
	// disables client-supplied priorities.
	PriorityHeader string
	// HighPriorityRoles are role names (local names or full IRIs) whose
	// queries ride the High tier regardless of headers — default
	// EmergencyResponse, per the paper's Sec 7.1 scenario. Mutations are
	// always High: losing a write costs more than delaying a read.
	HighPriorityRoles []string
}

// WithAdmission puts the adaptive admission controller between the
// readiness gate and the handlers: every query/view/mutate request must win
// a concurrency slot (possibly after a short bounded queue wait) or is
// answered 429 "overloaded" with a Retry-After estimate. Control-plane
// routes — the ungated rows of routeTable: /healthz, /metrics, /v1/slo,
// /v1/traces, the WAL replication endpoints — bypass the gate: the signals
// used to diagnose an overload must stay readable during one.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) {
		s.admission = cfg.Controller
		s.priorityHeader = cfg.PriorityHeader
		roles := cfg.HighPriorityRoles
		if len(roles) == 0 {
			roles = []string{"EmergencyResponse"}
		}
		s.highRoles = make(map[rdf.IRI]bool, len(roles))
		for _, r := range roles {
			if iri, err := resolveRole(r); err == nil {
				s.highRoles[iri] = true
			}
		}
	}
}

// WithWorkload attaches the per-fingerprint workload stats table: the
// middleware books into it every request that carried a query — evaluated,
// failed or shed, with the request's latency — and GET /v1/queries
// serves the heavy-hitter view (top-K by count, or one fingerprint's detail
// via ?fp=<hex>).
func WithWorkload(t *workload.Table) ServerOption {
	return func(s *Server) { s.workload = t }
}

// WithProfiler mounts the burn-triggered capture ring at /v1/profiles: the
// listing reports capture metadata, ?id=N&kind=cpu|heap serves raw pprof
// bytes for `go tool pprof`. The route bypasses the readiness gate — the
// profile of a collapse must stay fetchable while the server refuses work.
func WithProfiler(p *prof.Profiler) ServerOption {
	return func(s *Server) { s.profiler = p }
}

// ungated marks a route that bypasses admission control.
const ungated admission.Class = -1

// The method sets a row may name.
var (
	readMethods  = []string{http.MethodGet, http.MethodHead}
	writeMethods = []string{http.MethodPost}
)

// route is one row of routeTable, the only place a route's handler, methods
// and gates are declared: NewServer derives the mux registration, the
// metric / SLO / root-span label, the readiness and admission gates and the
// replica's redirect from the row, so they cannot drift apart.
type route struct {
	// pattern is the ServeMux pattern and, verbatim, the bounded label the
	// route carries on metrics, SLO windows and its root span.
	pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
	// methods are the verbs the route answers; any other gets 405 with an
	// Allow header. nil leaves the method to the handler.
	methods []string
	// class is the admission pool a request must win a slot from, or
	// ungated: the surface that diagnoses an overload must stay readable
	// during one.
	class admission.Class
	// alwaysReady exempts the route from the readiness gate — health,
	// metrics and the profiler are how a stuck recovery or a collapsed
	// replica gets diagnosed while the data plane refuses work.
	alwaysReady bool
	// sloSkip keeps the route out of the SLO windows: a caught-up follower's
	// stream request parks for the whole poll window by design, and feeding
	// that into the latency objectives would page on healthy behavior.
	sloSkip bool
	// leaderOnly routes answer 421 + Location on a read replica.
	leaderOnly bool
	// on reports whether the server's options mount the route (nil: always).
	on func(*Server) bool
}

// Mount predicates: the With* option that enables a row.
func withMetrics(s *Server) bool    { return s.metrics != nil } // or the engine's registry
func withPprof(s *Server) bool      { return s.pprof }
func withTracer(s *Server) bool     { return s.tracer != nil }
func withSLO(s *Server) bool        { return s.slo != nil }
func withWorkload(s *Server) bool   { return s.workload != nil }
func withProfiler(s *Server) bool   { return s.profiler != nil }
func withCluster(s *Server) bool    { return s.cluster != nil }
func withReplLeader(s *Server) bool { return s.replLeader != nil }

var routeTable = []route{
	{pattern: "/v1/roles", handler: (*Server).handleRoles, methods: readMethods, class: ungated},
	{pattern: "/v1/ontologies", handler: (*Server).handleOntologies, methods: readMethods, class: ungated},
	{pattern: "/v1/view", handler: (*Server).handleView, methods: readMethods, class: admission.ClassView},
	{pattern: "/v1/resource", handler: (*Server).handleResource, methods: readMethods, class: admission.ClassQuery},
	{pattern: "/v1/query", handler: (*Server).handleQuery, methods: readMethods, class: admission.ClassQuery},
	{pattern: "/v1/mutate", handler: (*Server).handleMutate, methods: writeMethods, class: admission.ClassMutate, leaderOnly: true},
	{pattern: "/v1/audit", handler: (*Server).handleAudit, methods: readMethods, class: ungated},
	{pattern: "/v1/store", handler: (*Server).handleStoreStats, methods: readMethods, class: ungated},
	{pattern: "/healthz", handler: (*Server).handleHealth, methods: readMethods, class: ungated, alwaysReady: true},
	{pattern: "/metrics", handler: (*Server).handleMetrics, class: ungated, alwaysReady: true, on: withMetrics},
	{pattern: "/debug/pprof/", handler: (*Server).handlePprof, class: ungated, alwaysReady: true, on: withPprof},
	{pattern: "/v1/traces", handler: (*Server).handleTraces, methods: readMethods, class: ungated, on: withTracer},
	{pattern: "/v1/traces/{id}", handler: (*Server).handleTrace, methods: readMethods, class: ungated, on: withTracer},
	{pattern: "/v1/slo", handler: (*Server).handleSLO, methods: readMethods, class: ungated, on: withSLO},
	{pattern: "/v1/queries", handler: (*Server).handleQueries, methods: readMethods, class: ungated, on: withWorkload},
	{pattern: "/v1/profiles", handler: (*Server).handleProfiles, methods: readMethods, class: ungated, alwaysReady: true, on: withProfiler},
	{pattern: "/v1/cluster", handler: (*Server).handleCluster, methods: readMethods, class: ungated, on: withCluster},
	{pattern: "/v1/wal/stream", handler: (*Server).handleWALStream, class: ungated, sloSkip: true, on: withReplLeader},
	{pattern: "/v1/wal/snapshot", handler: (*Server).handleWALSnapshot, class: ungated, sloSkip: true, on: withReplLeader},
}

// unknownRoute serves every path no row matches. Its label keeps unknown
// paths from exploding metric cardinality.
var unknownRoute = route{pattern: "other", handler: (*Server).handleNotFound, class: ungated}

// NewServer builds the HTTP front-end over an engine and an ontology
// repository (repo may be nil). If the engine carries a metrics registry
// and no WithMetrics option is given, the engine's registry is used.
func NewServer(engine *Engine, repo *OntoRepository, opts ...ServerOption) *Server {
	s := &Server{engine: engine, repo: repo, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = engine.Metrics()
	}
	if s.slo != nil {
		s.slo.Instrument(s.metrics)
	}
	for i := range routeTable {
		if rt := &routeTable[i]; rt.on == nil || rt.on(s) {
			s.mux.Handle(rt.pattern, s.serve(rt))
		}
	}
	s.mux.Handle("/", s.serve(&unknownRoute))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// serve wraps one row's handler in everything the row declares: the obs
// middleware labelled with the pattern, then — in this order — the readiness
// gate, the admission gate, the replica redirect and the method check.
func (s *Server) serve(rt *route) http.Handler {
	var books []interface{ Observe(*obs.Request) }
	if s.slo != nil && !rt.sloSkip {
		books = append(books, s.slo)
	}
	if s.workload != nil {
		books = append(books, s.workload)
	}
	if rt.class != ungated {
		// The routes behind admission are the ones that take a role: each of
		// their requests is one audit entry.
		books = append(books, s.engine.audit)
	}
	return obs.Middleware(obs.MiddlewareConfig{
		Registry: s.metrics,
		Logger:   s.logger,
		Route:    rt.pattern,
		Tracer:   s.tracer,
		Books:    books,
		Panic: func(w http.ResponseWriter, r *http.Request, v any) {
			s.writeError(w, r, http.StatusInternalServerError, "internal",
				"internal server error")
		},
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rt.alwaysReady && s.refuseUnready(w, r) {
			return
		}
		if rt.class != ungated && s.admission != nil {
			release, ok := s.admit(w, r, rt.class)
			if !ok {
				return
			}
			defer release()
		}
		if rt.leaderOnly && s.leaderURL != "" {
			// A well-behaved client re-issues the identical request at the
			// leader instead of forking the replica's history.
			w.Header().Set("Location", strings.TrimSuffix(s.leaderURL, "/")+r.URL.RequestURI())
			s.writeError(w, r, http.StatusMisdirectedRequest, "not_leader",
				"this server is a read replica; send mutations to the leader")
			return
		}
		if rt.methods != nil && !slices.Contains(rt.methods, r.Method) {
			w.Header().Set("Allow", strings.Join(rt.methods, ", "))
			s.writeError(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("method %s not allowed", r.Method))
			return
		}
		if role, err := resolveRole(r.URL.Query().Get("role")); err == nil && rt.class != ungated {
			obs.RequestOf(r.Context()).Role = string(role) // a forwarded read names its role too
		}
		if s.fed != nil && (rt.class == admission.ClassQuery || rt.class == admission.ClassView) {
			s.forward(w, r, rt.pattern) // a router sends its reads to a replica
			return
		}
		rt.handler(s, w, r)
	}))
}

// requestPriority classifies one request's admission tier: an explicit
// priority header wins, then mutations and the configured high-priority
// roles (EmergencyResponse by default) ride High, and everything else is
// Normal. The header wins even downward — a client may deliberately
// downgrade its own traffic (a bulk loader tagging itself "low").
func (s *Server) requestPriority(r *http.Request, class admission.Class) admission.Priority {
	if s.priorityHeader != "" {
		if p, ok := admission.ParsePriority(r.Header.Get(s.priorityHeader)); ok {
			return p
		}
	}
	if class == admission.ClassMutate {
		return admission.High
	}
	if iri, err := resolveRole(r.URL.Query().Get("role")); err == nil && s.highRoles[iri] {
		return admission.High
	}
	return admission.Normal
}

// admit asks the controller for a slot in the route's pool. A shed answers
// 429 with the uniform error envelope and a Retry-After estimate, and its
// record says shed: the middleware books it as a request, in metrics and the
// SLO window, but not as a latency sample nor against the error budget
// (429 < 500). ok is false when the response is written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, class admission.Class) (release func(), ok bool) {
	release, err := s.admission.Admit(r.Context(), class, s.requestPriority(r, class))
	if err == nil {
		return release, true
	}
	// The request never reaches its handler, but the query shape that drove
	// the server into shedding is exactly the one worth seeing in
	// /v1/queries: the record carries it.
	rec := obs.RequestOf(r.Context())
	if q := r.URL.Query().Get("q"); q != "" {
		if pq, err := s.engine.Parse(q); err == nil {
			noteQuery(rec, pq)
		}
	}
	var shed *admission.ShedError
	if errors.As(err, &shed) {
		rec.Outcome = obs.OutcomeShed
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(shed.RetryAfter.Seconds()))))
		s.writeError(w, r, http.StatusTooManyRequests, "overloaded", err.Error())
		return nil, false
	}
	// The client's context ended while it waited in queue; there is nobody
	// left to answer, but the status line keeps the books straight.
	s.writeError(w, r, http.StatusServiceUnavailable, "canceled",
		"client gave up while queued for admission")
	return nil, false
}

// refuseUnready holds a route behind the readiness probes: listening starts
// before recovery finishes, but no request reaches an engine whose state is
// still being rebuilt. On a read replica it also tracks the follower:
// unbootstrapped answers "recovering", and a replica whose replication lag
// exceeds its bound answers "lagging" — stale reads are refused rather than
// silently served. It reports whether it wrote the 503.
func (s *Server) refuseUnready(w http.ResponseWriter, r *http.Request) bool {
	if s.ready != nil && !s.ready() {
		s.writeError(w, r, http.StatusServiceUnavailable, "recovering",
			"durable state is being recovered; retry shortly")
		return true
	}
	if s.replStatus == nil {
		return false
	}
	rs := s.replStatus()
	switch {
	case rs.Ready:
		return false
	case !rs.Bootstrapped:
		s.writeError(w, r, http.StatusServiceUnavailable, "recovering",
			"replica is bootstrapping from the leader snapshot; retry shortly")
	default:
		s.writeError(w, r, http.StatusServiceUnavailable, "lagging",
			fmt.Sprintf("replication lag %.2fs exceeds the %.2fs bound; use another replica",
				rs.LagSeconds, rs.MaxLagSeconds))
	}
	return true
}

// recoveredLeader returns the replication leader, or answers 503 and nil
// during durable recovery: the repository is still replaying, so there is
// nothing to stream from yet.
func (s *Server) recoveredLeader(w http.ResponseWriter, r *http.Request) *repl.Leader {
	ld := s.replLeader()
	if ld == nil {
		s.writeError(w, r, http.StatusServiceUnavailable, "recovering",
			"replication leader is still recovering; retry shortly")
	}
	return ld
}

// handleWALStream serves the follower record stream.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if ld := s.recoveredLeader(w, r); ld != nil {
		ld.ServeStream(w, r)
	}
}

// handleWALSnapshot serves the bootstrap state transfer.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, r *http.Request) {
	if ld := s.recoveredLeader(w, r); ld != nil {
		ld.ServeSnapshot(w, r)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Handler().ServeHTTP(w, r)
}

// handlePprof serves the net/http/pprof endpoints under /debug/pprof/.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, r, http.StatusNotFound, "not_found", "no such route")
}

// writeJSON encodes v, putting (rather than silently discarding) an encode
// failure on the request's record — by then the status line is gone, so the
// request's log line is all that's left.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.RequestOf(r.Context()).Error = "encode response: " + err.Error()
	}
}

// errorEnvelope is the uniform error body of the v1 API.
type errorEnvelope struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id"`
}

// writeError emits the JSON error envelope with the request's trace ID, so a
// client-side error report can be correlated with the server logs; the
// message goes on the request's record, and so into its log line.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	obs.RequestOf(r.Context()).Error = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	env := errorEnvelope{Error: msg, Code: code, TraceID: obs.TraceID(r.Context())}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		obs.RequestOf(r.Context()).Error = "encode error response: " + err.Error()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// While recovery runs, another goroutine is mutating the engine (store
	// load, reasoner swap); report the phase without touching any of it.
	if s.ready != nil && !s.ready() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if err := json.NewEncoder(w).Encode(map[string]any{"status": "recovering"}); err != nil {
			obs.RequestOf(r.Context()).Error = "encode response: " + err.Error()
		}
		return
	}
	// One pinned version, so the count and the generation are of one commit.
	view := s.engine.Data().View()
	body := map[string]any{
		"status":     "ok",
		"triples":    view.Len(),
		"generation": view.Generation(),
		"cache":      s.engine.Cache().Snapshot(),
	}
	if st := s.engine.AuditStats(); st.Capacity > 0 {
		body["audit"] = st
	}
	if s.walStatus != nil {
		if ws := s.walStatus(); ws != nil {
			body["wal"] = ws
		}
	}
	// Saturation signals: the resources that exhaust first under load, so
	// an external load generator can distinguish "saturated" from "broken".
	body["saturation"] = obs.ReadSaturation(s.metrics)
	if s.admission != nil {
		body["admission"] = s.admission.Status()
	}
	if s.replStatus != nil {
		rs := s.replStatus()
		body["replication"] = rs
		if !rs.Ready {
			// The replica still answers /healthz with the full picture, but
			// the status line and code tell a probe to stop routing reads here.
			if rs.Bootstrapped {
				body["status"] = "lagging"
			} else {
				body["status"] = "recovering"
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}
	s.writeJSON(w, r, body)
}

// handleSLO serves the engine's sliding-window objective report: per-window
// latency quantiles, error rates and burn rates, overall and per route.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, s.slo.Status())
}

// handleTraces lists the tracer's retained traces, newest first. The limit
// parameter bounds the listing (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, err := positiveIntParam(r, "limit", 50)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	traces := s.tracer.Traces(limit)
	if traces == nil {
		traces = []obs.TraceSummary{}
	}
	s.writeJSON(w, r, map[string]any{
		"traces":   traces,
		"capacity": s.tracer.Capacity(),
	})
}

// spanNode is one span with its children nested — the tree shape of
// /v1/traces/{id}.
type spanNode struct {
	obs.SpanData
	Children []*spanNode `json:"children,omitempty"`
}

// spanTree reconstructs the span tree from the flat completion-order list.
// Spans whose parent is not in the trace (the root's remote parent on a
// federation peer, or a parent still open when the trace was cut) become
// roots.
func spanTree(spans []obs.SpanData) []*spanNode {
	nodes := make(map[string]*spanNode, len(spans))
	for _, sd := range spans {
		nodes[sd.SpanID] = &spanNode{SpanData: sd}
	}
	var roots []*spanNode
	for _, sd := range spans {
		n := nodes[sd.SpanID]
		if p, ok := nodes[sd.ParentID]; ok && sd.ParentID != sd.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	// Children complete before their parents, so completion order lists the
	// leaves first; sort every level by start time for a readable tree.
	var sortLevel func(ns []*spanNode)
	sortLevel = func(ns []*spanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortLevel(n.Children)
		}
	}
	sortLevel(roots)
	return roots
}

// handleTrace renders one retained trace as a span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	td, ok := s.tracer.Trace(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "not_found",
			"trace not retained (evicted from the ring buffer, or never recorded)")
		return
	}
	s.writeJSON(w, r, map[string]any{
		"trace_id":      td.TraceID,
		"root":          td.Root,
		"start":         td.Start,
		"duration_us":   td.DurationUS,
		"failed":        td.Failed,
		"dropped_spans": td.DroppedSpans,
		"tree":          spanTree(td.Spans),
	})
}

func (s *Server) handleRoles(w http.ResponseWriter, r *http.Request) {
	subjects := s.engine.Policies().Subjects()
	out := make([]string, len(subjects))
	for i, sub := range subjects {
		out[i] = string(sub)
	}
	s.writeJSON(w, r, map[string]any{"roles": out})
}

func (s *Server) handleOntologies(w http.ResponseWriter, r *http.Request) {
	names := []string{}
	if s.repo != nil {
		names = s.repo.Names()
	}
	s.writeJSON(w, r, map[string]any{"ontologies": names})
}

// resolveRole accepts a full IRI or a local name under the seconto namespace.
func resolveRole(raw string) (rdf.IRI, error) {
	if raw == "" {
		return "", fmt.Errorf("missing role parameter")
	}
	if strings.Contains(raw, "://") {
		return rdf.IRI(raw), nil
	}
	return rdf.IRI(seconto.NS + raw), nil
}

// role resolves a request's role parameter raw, which serve has written on
// the request's record, or answers 400; ok is false when the response is written.
func (s *Server) role(w http.ResponseWriter, r *http.Request, raw string) (role rdf.IRI, ok bool) {
	role, err := resolveRole(raw)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return "", false
	}
	return role, true
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	role, ok := s.role(w, r, r.URL.Query().Get("role"))
	if !ok {
		return
	}
	f := 0 // Turtle
	if raw := r.URL.Query().Get("format"); raw != "" {
		f = slices.IndexFunc(viewFormats[:], func(vf viewFormat) bool { return vf.name == raw })
	}
	if f < 0 {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "format must be turtle|ntriples")
		return
	}
	doc := s.engine.exportView(r.Context(), role, seconto.ActionView, f)
	if doc.err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", doc.err.Error())
		return
	}
	s.writeDocument(w, r, http.StatusOK, viewFormats[f].contentType, doc.body, doc.etag)
}

// writeDocument answers with status and a document rendered in full
// beforehand, so a failure to render is a clean 500 and a failure to write —
// the client went away — only a log line: nothing is written after the body
// has begun. A non-empty etag is sent as the ETag, and an If-None-Match
// naming it is answered 304 without a body; HEAD gets the headers alone.
func (s *Server) writeDocument(w http.ResponseWriter, r *http.Request, status int, contentType string, body []byte, etag string) {
	h := w.Header()
	if etag != "" {
		h.Set("ETag", etag)
		if noneMatch(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(body); err != nil {
		obs.RequestOf(r.Context()).Error = "write response: " + err.Error()
	}
}

// noneMatch reports whether an If-None-Match header value names etag, by the
// weak comparison RFC 9110 prescribes for it.
func noneMatch(header, etag string) bool {
	for _, tag := range strings.Split(header, ",") {
		if tag = strings.TrimSpace(tag); tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleResource(w http.ResponseWriter, r *http.Request) {
	role, ok := s.role(w, r, r.URL.Query().Get("role"))
	if !ok {
		return
	}
	iri := r.URL.Query().Get("iri")
	if iri == "" {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "missing iri parameter")
		return
	}
	res := rdf.IRI(iri)
	// One judge for the request: the decision and the triples it filters are
	// of the same version, whatever is written in between.
	j := s.engine.current()
	acc, err := s.engine.decideCtx(r.Context(), j, role, seconto.ActionView, res)
	if err != nil {
		s.writeError(w, r, http.StatusServiceUnavailable, "canceled", err.Error())
		return
	}
	noteDecision(obs.RequestOf(r.Context()), j, seconto.ActionView, res, acc)
	if !acc.Allowed {
		s.writeError(w, r, http.StatusForbidden, "forbidden", "access denied")
		return
	}
	// filterResource describes each node once, so its triples are distinct
	// and go to the writer as they are.
	s.writeDocument(w, r, http.StatusOK, "text/turtle", turtle.AppendTriples(nil, j.filterResource(res, acc), nil), "")
}

// handleQuery parses the query once: its shape goes on the request's record
// before anything can fail, the parsed query is what the engine evaluates, and
// what the evaluation did goes on the record after.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	role, ok := s.role(w, r, params.Get("role"))
	if !ok {
		return
	}
	src := params.Get("q")
	if src == "" {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "missing q parameter")
		return
	}
	explain := params.Get("explain")
	if explain == "1" || explain == "true" {
		plan, err := s.engine.ExplainQuery(r.Context(), role, seconto.ActionView, src)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "query_error", err.Error())
			return
		}
		s.writeJSON(w, r, map[string]any{"plan": plan})
		return
	}
	q, err := s.engine.Parse(src)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "query_error", err.Error())
		return
	}
	rec := obs.RequestOf(r.Context())
	noteQuery(rec, q)
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	if explain == "analyze" {
		s.handleExplainAnalyze(w, r, ctx, role, q)
		return
	}
	res, err := s.engine.EvalCtx(ctx, role, seconto.ActionView, q)
	if err != nil {
		s.writeQueryError(w, r, err, http.StatusBadRequest, "query_error")
		return
	}
	noteStats(rec, res.Stats)
	s.writeResult(w, r, res)
}

// writeQueryError answers a query that failed: 504 past the evaluation
// deadline, 503 when the client went away, and status with code otherwise.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error, status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("query exceeded the %s evaluation deadline", s.queryTimeout))
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, http.StatusServiceUnavailable, "canceled", "query canceled")
	default:
		s.writeError(w, r, status, code, err.Error())
	}
}

// forward answers a router's read with one replica's status, Content-Type,
// ETag and body, after booking a query's shape; 502 when no replica answers.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, path string) {
	rec, ctx := obs.RequestOf(r.Context()), r.Context()
	if path == federation.QueryPath {
		if q, err := s.engine.Parse(r.URL.Query().Get("q")); err == nil {
			noteQuery(rec, q)
		}
	}
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	ans, err := s.fed.Forward(ctx, federation.Request{Path: path, RawQuery: r.URL.RawQuery, IfNoneMatch: r.Header.Get("If-None-Match")})
	if err != nil {
		s.writeQueryError(w, r, err, http.StatusBadGateway, "all_sources_failed")
		return
	}
	if env := (errorEnvelope{}); ans.Status != http.StatusOK && json.Unmarshal(ans.Body, &env) == nil {
		rec.Error = env.Error
	}
	s.writeDocument(w, r, ans.Status, ans.ContentType, ans.Body, ans.ETag)
}

// analyzeStage is one executed BGP join step of an EXPLAIN ANALYZE response:
// the planner's estimate next to what actually happened.
type analyzeStage struct {
	// Stage is the execution position within its BGP (join order); -1 for an
	// index probe, which runs before the first.
	Stage int `json:"stage"`
	// PatternIndex is the pattern's position in the query text (-1 for a
	// probe, whose Pattern is its description).
	PatternIndex int    `json:"pattern_index"`
	Pattern      string `json:"pattern"`
	// Estimate is the planner's cardinality estimate; -1 when the planner was
	// off and no estimate exists.
	Estimate    float64 `json:"estimate"`
	RowsIn      int64   `json:"rows_in"`
	RowsScanned int64   `json:"rows_scanned"`
	RowsOut     int64   `json:"rows_out"`
	DurationUS  int64   `json:"duration_us"`
}

// handleExplainAnalyze answers ?explain=analyze: the query actually runs, and
// the response reports per-stage actual timings and est-vs-actual
// cardinalities harvested from the sparql.bgp.step spans, plus the result
// summary. On an untraced request (no tracer configured) a detached trace
// supplies the span accumulator, so the endpoint works either way.
func (s *Server) handleExplainAnalyze(w http.ResponseWriter, r *http.Request, ctx context.Context, role rdf.IRI, q *sparql.Query) {
	at := obs.ActiveTrace(ctx)
	var root *obs.Span
	if at == nil {
		ctx, root = obs.StartDetachedTrace(ctx, "explain.analyze")
		at = obs.ActiveTrace(ctx)
	}
	// On a traced request the accumulator already holds earlier spans
	// (middleware, decision engine); only spans completed past this mark
	// belong to the analyzed query.
	mark := len(at.Completed())
	start := time.Now()
	res, err := s.engine.EvalCtx(ctx, role, seconto.ActionView, q)
	elapsed := time.Since(start)
	root.End()
	if err != nil {
		s.writeQueryError(w, r, err, http.StatusBadRequest, "query_error")
		return
	}
	noteStats(obs.RequestOf(r.Context()), res.Stats)
	var stages []analyzeStage
	for _, sd := range at.Completed()[mark:] {
		if sd.Name == "sparql.probe" && sd.Attrs["probe"] != "" {
			// An index probe asked at the BGP whose stages follow (its line
			// says so when the join did not start from it): it has no pattern
			// of its own and no estimate, and what it read and what it kept
			// are both its candidates.
			n := sd.Counters["candidates"]
			stages = append(stages, analyzeStage{Stage: -1, PatternIndex: -1, Pattern: sd.Attrs["probe"],
				Estimate: -1, RowsScanned: n, RowsOut: n, DurationUS: sd.DurationUS})
		}
		if sd.Name != "sparql.bgp.step" {
			continue
		}
		st := analyzeStage{
			Pattern:     sd.Attrs["pattern"],
			Estimate:    -1,
			RowsIn:      sd.Counters["rows_in"],
			RowsScanned: sd.Counters["rows_scanned"],
			RowsOut:     sd.Counters["rows_out"],
			DurationUS:  sd.DurationUS,
		}
		st.Stage, _ = strconv.Atoi(sd.Attrs["stage"])
		st.PatternIndex, _ = strconv.Atoi(sd.Attrs["pattern_index"])
		if raw := sd.Attrs["estimate"]; raw != "" {
			if est, perr := strconv.ParseFloat(raw, 64); perr == nil {
				st.Estimate = est
			}
		}
		stages = append(stages, st)
	}
	if stages == nil {
		stages = []analyzeStage{}
	}
	body := map[string]any{
		"stages":    stages,
		"total_us":  elapsed.Microseconds(),
		"kind":      res.Kind.String(),
		"solutions": res.Len(),
		"trace_id":  obs.TraceID(ctx),
	}
	s.writeJSON(w, r, body)
}

// handleAudit dumps the request audit trail (empty when auditing is off),
// prefixed with the ring's occupancy/loss stats. limit and offset paginate
// over the trail in-order; total always reports the full trail length.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	limit, err := positiveIntParam(r, "limit", -1)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	offset, err := positiveIntParam(r, "offset", 0)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	trail := s.engine.AuditTrail()
	total := len(trail)
	trail = trail[min(offset, total):]
	if limit >= 0 && limit < len(trail) {
		trail = trail[:limit]
	}
	if trail == nil {
		trail = []AuditEntry{}
	}
	s.writeJSON(w, r, map[string]any{
		"stats": s.engine.AuditStats(), "entries": trail,
		"total": total, "offset": offset,
	})
}

// positiveIntParam parses a non-negative integer query parameter, returning
// def when absent.
func positiveIntParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer", name)
	}
	return n, nil
}

// mutateOpRequest is one element of the POST /v1/mutate body. Insert and
// delete ops carry one or more N-Triples statements in "triples"; update ops
// carry exactly one statement in each of "old" and "new".
type mutateOpRequest struct {
	Op      string `json:"op"`
	Triples string `json:"triples,omitempty"`
	Old     string `json:"old,omitempty"`
	New     string `json:"new,omitempty"`
}

// handleMutate serves POST /v1/mutate, the only write route: a JSON array of
// mutation ops applied atomically — authorization runs per op up front, then
// the batch commits as exactly one store generation and one WAL group-commit
// entry. Any failure (denial, missing update target, durability refusal)
// aborts the whole batch and names the offending op in the error envelope.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	role, ok := s.role(w, r, r.URL.Query().Get("role"))
	if !ok {
		return
	}
	body := r.Body
	if s.maxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	}
	var reqs []mutateOpRequest
	if err := json.NewDecoder(body).Decode(&reqs); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		s.writeError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("body must be a JSON array of ops: %v", err))
		return
	}
	if len(reqs) == 0 {
		s.writeJSON(w, r, map[string]any{"applied": 0, "changed": 0, "results": []int{}})
		return
	}
	muts := make([]MutationOp, len(reqs))
	for i, req := range reqs {
		m, err := parseMutateOp(req)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("op %d: %v", i, err))
			return
		}
		muts[i] = m
	}
	ns, err := s.engine.MutateCtx(r.Context(), role, muts)
	if err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	changed := 0
	for _, n := range ns {
		changed += n
	}
	s.writeJSON(w, r, map[string]any{
		"applied":    len(muts),
		"changed":    changed,
		"results":    ns,
		"generation": s.engine.Data().Generation(),
	})
}

// parseMutateOp shapes one JSON op into an engine MutationOp.
func parseMutateOp(req mutateOpRequest) (MutationOp, error) {
	parse := func(field, src string) ([]rdf.Triple, error) {
		ts, err := ntriples.ParseTriples(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", field, err)
		}
		return ts, nil
	}
	one := func(field, src string) (rdf.Triple, error) {
		ts, err := parse(field, src)
		if err != nil {
			return rdf.Triple{}, err
		}
		if len(ts) != 1 {
			return rdf.Triple{}, fmt.Errorf("%s must hold exactly one statement, got %d", field, len(ts))
		}
		return ts[0], nil
	}
	switch req.Op {
	case "insert", "delete":
		ts, err := parse("triples", req.Triples)
		if err != nil {
			return MutationOp{}, err
		}
		if len(ts) == 0 {
			return MutationOp{}, fmt.Errorf("%s op carries no statements in \"triples\"", req.Op)
		}
		kind := store.OpAdd
		if req.Op == "delete" {
			kind = store.OpRemove
		}
		return MutationOp{Kind: kind, Triples: ts}, nil
	case "update":
		old, err := one("old", req.Old)
		if err != nil {
			return MutationOp{}, err
		}
		newT, err := one("new", req.New)
		if err != nil {
			return MutationOp{}, err
		}
		if !old.Subject.Equal(newT.Subject) || !old.Predicate.Equal(newT.Predicate) {
			return MutationOp{}, errors.New("old and new statements must share subject and predicate")
		}
		return MutationOp{Kind: store.OpReplace, Triples: []rdf.Triple{old, newT}}, nil
	default:
		return MutationOp{}, fmt.Errorf("unknown op %q (want insert, delete or update)", req.Op)
	}
}

// handleStoreStats serves GET /v1/store: a snapshot of the MVCC store —
// current generation (commits since the empty store), triple and dictionary
// cardinalities, and the group-commit batcher's size histogram.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Data()
	view := st.View()
	stats := view.Stats()
	gc := st.GroupCommitStats()
	hist := make(map[string]uint64, len(store.BatchBucketLabels))
	for i, label := range store.BatchBucketLabels {
		hist[label] = gc.Hist[i]
	}
	mean := 0.0
	if gc.Groups > 0 {
		mean = float64(gc.Ops) / float64(gc.Groups)
	}
	s.writeJSON(w, r, map[string]any{
		"generation": view.Generation(),
		"triples":    stats.Triples,
		"cardinalities": map[string]int{
			"subjects":   stats.Subjects,
			"predicates": stats.Predicates,
			"objects":    stats.Objects,
		},
		"dict_terms": stats.DictTerms,
		"group_commit": map[string]any{
			"groups":          gc.Groups,
			"ops":             gc.Ops,
			"max_batch":       gc.MaxBatch,
			"mean_batch":      mean,
			"batch_size_hist": hist,
		},
	})
}

// writeMutationError maps a mutation failure onto the v1 error envelope:
// authorization denials are 403 "forbidden", a missing update target is 404
// "not_found", a durability-layer refusal is 500 "not_persisted" (the
// mutation did NOT happen), and anything else is a 400 "bad_request".
func (s *Server) writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	var denied *ErrDenied
	switch {
	case errors.As(err, &denied):
		s.writeError(w, r, http.StatusForbidden, "forbidden", err.Error())
	case errors.Is(err, ErrNotFound):
		s.writeError(w, r, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, store.ErrCommitHook):
		s.writeError(w, r, http.StatusInternalServerError, "not_persisted", err.Error())
	default:
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// writeResult answers with a SPARQL result, in the shape
// sparql.Result.WriteJSON writes.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *sparql.Result) {
	w.Header().Set("Content-Type", "application/json")
	if err := res.WriteJSON(w); err != nil {
		obs.RequestOf(r.Context()).Error = "write response: " + err.Error()
	}
}
