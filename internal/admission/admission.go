// Package admission closes the loop from overload signals to back-pressure.
//
// PR 6 made overload visible — the SLO engine's burn-rate windows and the
// /healthz saturation block — and BENCH_LOAD recorded the failure mode they
// watch: past the knee, every request is admitted, queues grow without
// bound, and the corrected p99 collapses into seconds while throughput goes
// nowhere. This package is the actuator those signals were missing:
//
//   - An adaptive concurrency limit per route class (query/view/mutate),
//     AIMD-controlled: probe additively upward while the admitted-latency
//     window and the external Signal (SLO fast-burn, saturation) stay
//     healthy, back off multiplicatively the moment either breaches. The
//     limit converges to the concurrency the backend can actually serve
//     inside its latency target, wherever that is on today's hardware.
//
//   - A small bounded FIFO in front of each limit with a per-request queue
//     deadline. A request that would predictably wait past the deadline is
//     shed *immediately* — queue wait must never silently become tail
//     latency, which is exactly how the unbounded collapse happens.
//
//   - Priority tiers: the paper's security roles double as QoS classes.
//     Mutations and emergency-response queries (High) outlive best-effort
//     traffic under shed — a High arrival may evict a queued BestEffort
//     waiter rather than be refused.
//
// Shed requests carry a Retry-After estimate so well-behaved clients (the
// federation retry loop, replication followers) spread their comeback
// instead of stampeding.
package admission

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Class partitions the HTTP surface into independently limited resource
// pools: a mutation burst must not be able to starve the query pool's
// concurrency and vice versa.
type Class int

const (
	// ClassQuery covers /v1/query and /v1/resource — the decision-engine
	// read path.
	ClassQuery Class = iota
	// ClassView covers /v1/view — full redacted-graph exports, the heaviest
	// read shape.
	ClassView
	// ClassMutate covers /v1/mutate — the WAL'd write path.
	ClassMutate

	numClasses
)

// String returns the metric label value for c.
func (c Class) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassView:
		return "view"
	case ClassMutate:
		return "mutate"
	default:
		return "unknown"
	}
}

// Priority orders requests under contention. Higher values outlive lower
// ones: a higher-priority arrival is queued ahead of — and may evict — a
// lower-priority waiter, so under sustained shed the BestEffort tier
// absorbs nearly all of the refusals.
type Priority int

const (
	// BestEffort is traffic that may be shed first (bulk exports, batch
	// analytics, anything tagged low by the priority header).
	BestEffort Priority = iota
	// Normal is the default tier for untagged requests.
	Normal
	// High is availability-critical traffic: mutations (losing a write hurts
	// more than a slow read) and the paper's emergency-response role, whose
	// queries are the reason the system exists during an incident.
	High

	numPriorities
)

// String returns the metric label value for p.
func (p Priority) String() string {
	switch p {
	case BestEffort:
		return "best_effort"
	case Normal:
		return "normal"
	case High:
		return "high"
	default:
		return "unknown"
	}
}

// ParsePriority maps a client-supplied priority header value onto a tier.
// The mapping is deliberately forgiving — "high"/"critical"/"emergency",
// "normal"/"default", "low"/"best-effort"/"best_effort" — and ok reports
// whether the value was recognized at all, so an unknown tag falls back to
// the server's own classification instead of silently becoming Normal.
func ParsePriority(s string) (Priority, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "high", "critical", "emergency":
		return High, true
	case "normal", "default":
		return Normal, true
	case "low", "best-effort", "best_effort", "besteffort":
		return BestEffort, true
	}
	return Normal, false
}

// Signal is the external health input to the AIMD controller, sampled at
// most once per adjustment period. Either flag forces a multiplicative
// back-off even when the limiter's own latency window looks healthy — the
// window only sees admitted requests of its own class, while the SLO engine
// and the saturation probe see the whole process.
type Signal struct {
	// FastBurnBreached reports the SLO engine's fast-window availability
	// verdict (burn rate > 1 means the error budget is burning faster than
	// it accrues).
	FastBurnBreached bool
	// Saturated reports process-level resource exhaustion (runaway
	// goroutines, heap pressure).
	Saturated bool
}

// DefaultSignal composes the standard server health inputs: the SLO
// engine's fast-burn verdict and the obs saturation probe. Either argument
// may be nil.
func DefaultSignal(slo *obs.SLOEngine, reg *obs.Registry) func() Signal {
	return func() Signal {
		var sig Signal
		if slo != nil {
			sig.FastBurnBreached = !slo.Status().AvailabilityOK
		}
		sat := obs.ReadSaturation(reg)
		// Goroutine runaway is the canonical Go overload signature: every
		// parked request is a goroutine, so tens of thousands of them means
		// the queues this package exists to prevent are forming anyway.
		// Heap occupancy near the OS-granted ceiling precedes GC death
		// spirals.
		sig.Saturated = sat.Goroutines > 50_000 ||
			(sat.HeapSysBytes > 0 && float64(sat.HeapAllocBytes) > 0.92*float64(sat.HeapSysBytes))
		return sig
	}
}

// ShedError reports a refused request: which pool refused it, at what
// priority, why, and when the client should come back.
type ShedError struct {
	Class    Class
	Priority Priority
	// Reason is a bounded label: "queue_deadline" (the wait estimate
	// already exceeded the deadline at arrival, or the deadline expired
	// while queued), "queue_full" (bounded FIFO at capacity with no
	// lower-priority waiter to evict), or "evicted" (a queued waiter
	// displaced by a higher-priority arrival).
	Reason string
	// RetryAfter estimates when the pool will have drained enough to
	// accept this request — the value of the Retry-After header.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: %s request shed (%s, class %s): retry after %s",
		e.Priority, e.Reason, e.Class, e.RetryAfter)
}

// Config tunes a Controller. Zero values select the defaults noted on each
// field; the same configuration applies to every class pool.
type Config struct {
	// InitialLimit is the per-class concurrency limit before any
	// adaptation (default 32).
	InitialLimit int
	// MinLimit floors the multiplicative decrease (default 2): even a
	// melting server keeps probing with a trickle, or it could never
	// discover recovery.
	MinLimit int
	// MaxLimit caps the additive increase (default 4096).
	MaxLimit int
	// MaxQueue bounds the per-class wait queue (default 128; 0 disables
	// queueing — over-limit arrivals shed immediately).
	MaxQueue int
	// QueueDeadline is the longest a request may wait for a slot (default
	// 500ms). Arrivals whose estimated wait already exceeds it are shed
	// on the spot rather than parked to time out.
	QueueDeadline time.Duration
	// LatencyTarget is the admitted-request service-latency objective the
	// AIMD loop defends (default 100ms). Note this is service time after
	// admission; the end-to-end target seen by clients is roughly
	// LatencyTarget + QueueDeadline in the worst case.
	LatencyTarget time.Duration
	// LatencyQuantile is the window quantile compared against the target
	// (default 0.95).
	LatencyQuantile float64
	// AdjustEvery is the control period: limits move at most once per
	// period per class (default 250ms).
	AdjustEvery time.Duration
	// ProbeStep is the additive increase per healthy period (default 4).
	ProbeStep float64
	// BackoffRatio is the multiplicative decrease on breach (default 0.7).
	BackoffRatio float64
	// MinSamples is how many admitted requests a window needs before its
	// quantile may veto an increase or force a decrease (default 10).
	MinSamples int
	// Signal, when set, contributes external health (SLO fast burn,
	// saturation) to every adjustment. Sampled at most once per period
	// across all classes.
	Signal func() Signal
	// OnSignal, when set, observes every sampled Signal transition (a read
	// whose value differs from the previous sample). It is called outside
	// the sampler's lock and must be fast or hand off — the standard use is
	// triggering an immediate profile capture the moment overload begins.
	OnSignal func(prev, cur Signal)
	// Metrics receives the admission instruments (nil disables).
	Metrics *obs.Registry

	// now is injectable for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.InitialLimit <= 0 {
		c.InitialLimit = 32
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 2
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 4096
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.InitialLimit > c.MaxLimit {
		c.InitialLimit = c.MaxLimit
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.QueueDeadline <= 0 {
		c.QueueDeadline = 500 * time.Millisecond
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 100 * time.Millisecond
	}
	if c.LatencyQuantile <= 0 || c.LatencyQuantile >= 1 {
		c.LatencyQuantile = 0.95
	}
	if c.AdjustEvery <= 0 {
		c.AdjustEvery = 250 * time.Millisecond
	}
	if c.ProbeStep <= 0 {
		c.ProbeStep = 4
	}
	if c.BackoffRatio <= 0 || c.BackoffRatio >= 1 {
		c.BackoffRatio = 0.7
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// NoQueue is the MaxQueue value that disables queueing entirely.
const NoQueue = -1

// Controller is the admission front door: one adaptive limiter per class,
// shared external signal, shared configuration. Safe for concurrent use.
type Controller struct {
	cfg     Config
	classes [numClasses]*classLimiter
	sig     *signalCache
}

// NewController builds a Controller from cfg (defaults applied).
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	c.sig = newSignalCache(cfg.Signal, cfg.OnSignal, cfg.AdjustEvery/2, cfg.now)
	reg := cfg.Metrics
	for i := range c.classes {
		c.classes[i] = newClassLimiter(Class(i), cfg, c.sig, reg)
	}
	return c
}

// Admit asks for a slot in class at priority pri. It returns a release
// function to call exactly once when the request finishes, or an error:
// a *ShedError when the pool refused the request (answer 429 with its
// RetryAfter), or ctx.Err() when the caller gave up while queued.
func (c *Controller) Admit(ctx context.Context, class Class, pri Priority) (release func(), err error) {
	if class < 0 || class >= numClasses {
		return func() {}, nil
	}
	if pri < BestEffort {
		pri = BestEffort
	} else if pri > High {
		pri = High
	}
	return c.classes[class].admit(ctx, pri)
}

// ClassStatus is one pool's point-in-time state in the Status block.
type ClassStatus struct {
	Class         string  `json:"class"`
	Limit         float64 `json:"limit"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	Admitted      uint64  `json:"admitted"`
	Shed          uint64  `json:"shed"`
	Probes        uint64  `json:"probes"`
	Backoffs      uint64  `json:"backoffs"`
	EWMALatencyMs float64 `json:"ewma_latency_ms"`
}

// Status is the admission block surfaced on /healthz.
type Status struct {
	QueueDeadlineMs float64       `json:"queue_deadline_ms"`
	MaxQueue        int           `json:"max_queue"`
	Classes         []ClassStatus `json:"classes"`
	TotalShed       uint64        `json:"total_shed"`
}

// Status reports every pool's current limit, occupancy and counters.
func (c *Controller) Status() Status {
	st := Status{
		QueueDeadlineMs: float64(c.cfg.QueueDeadline) / float64(time.Millisecond),
		MaxQueue:        c.cfg.MaxQueue,
	}
	for _, l := range c.classes {
		cs := l.status()
		st.TotalShed += cs.Shed
		st.Classes = append(st.Classes, cs)
	}
	return st
}
