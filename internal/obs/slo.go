package obs

import (
	"sort"
	"sync"
	"time"
)

// SLOEngine tracks per-route latency and availability against configured
// service-level objectives over two sliding windows (a fast window that
// catches sudden regressions and a slow window that tracks sustained
// budget burn, per the multi-window burn-rate alerting recipe). Latency
// is held in log-bucketed LatencySketch histograms inside a ring of
// fixed-duration time buckets, so window queries are a merge over the
// buckets covering the window — O(buckets), no per-request allocation,
// and old traffic ages out at bucket granularity.

// SLOConfig configures an SLOEngine. Zero fields take defaults.
type SLOConfig struct {
	// LatencyTarget is the objective for LatencyQuantile (default 100ms).
	LatencyTarget time.Duration
	// LatencyQuantile is the quantile the latency objective applies to
	// (default 0.99).
	LatencyQuantile float64
	// AvailabilityTarget is the fraction of requests that must not fail
	// (default 0.999). A request fails when its status code is >= 500.
	AvailabilityTarget float64
	// FastWindow is the short alerting window (default 5m).
	FastWindow time.Duration
	// SlowWindow is the long budget window (default 1h). Must be a
	// multiple of the bucket duration, SlowWindow/sloBuckets.
	SlowWindow time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

const sloBuckets = 60

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 100 * time.Millisecond
	}
	if c.LatencyQuantile <= 0 || c.LatencyQuantile >= 1 {
		c.LatencyQuantile = 0.99
	}
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// sloBucket is one time slice of one route's traffic.
type sloBucket struct {
	epoch  int64 // bucket index since the unix epoch; -1 when empty
	sketch *LatencySketch
	total  uint64
	errors uint64
}

// sloSeries is the ring of time buckets for one route.
type sloSeries struct {
	mu      sync.Mutex
	buckets []sloBucket
}

// SLOEngine is safe for concurrent use. A nil engine records nothing.
type SLOEngine struct {
	cfg       SLOConfig
	bucketDur time.Duration

	mu     sync.RWMutex
	routes map[string]*sloSeries
}

// NewSLOEngine returns an engine with cfg (zero fields defaulted).
func NewSLOEngine(cfg SLOConfig) *SLOEngine {
	cfg = cfg.withDefaults()
	return &SLOEngine{
		cfg:       cfg,
		bucketDur: cfg.SlowWindow / sloBuckets,
		routes:    make(map[string]*sloSeries),
	}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *SLOEngine) Config() SLOConfig {
	if e == nil {
		return SLOConfig{}.withDefaults()
	}
	return e.cfg
}

func (e *SLOEngine) series(route string) *sloSeries {
	e.mu.RLock()
	s := e.routes[route]
	e.mu.RUnlock()
	if s != nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s = e.routes[route]; s == nil {
		// One extra bucket beyond the slow window so the bucket currently
		// being written never evicts one still inside the window.
		s = &sloSeries{buckets: make([]sloBucket, sloBuckets+1)}
		for i := range s.buckets {
			s.buckets[i].epoch = -1
		}
		e.routes[route] = s
	}
	return s
}

// Observe books one closed request into its route's window: it counts toward
// the total, toward the errors when its status is >= 500, and — unless it was
// shed — is a latency sample. A shed takes microseconds and never ran: were
// it a sample, an overload would pull the window's quantiles under the
// objective exactly while the admitted requests miss it. Safe on a nil
// engine. Route labels must be bounded (the middleware's is its mux
// pattern), since each route owns a bucket ring.
func (e *SLOEngine) Observe(rec *Request) {
	if e == nil {
		return
	}
	epoch := e.cfg.now().UnixNano() / int64(e.bucketDur)
	s := e.series(rec.Route)
	slot := int(epoch % int64(len(s.buckets)))

	s.mu.Lock()
	b := &s.buckets[slot]
	if b.epoch != epoch {
		// The slot belongs to an expired window; start it fresh.
		b.epoch = epoch
		b.sketch = NewLatencySketch()
		b.total, b.errors = 0, 0
	}
	sk := b.sketch
	b.total++
	if rec.Status >= 500 {
		b.errors++
	}
	s.mu.Unlock()

	if rec.Outcome != OutcomeShed {
		sk.Record(rec.Elapsed)
	}
}

// WindowStats summarises one window of one route (or all routes merged).
type WindowStats struct {
	Window    string  `json:"window"`
	Count     uint64  `json:"count"`
	Errors    uint64  `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	P999Ms    float64 `json:"p999_ms"`
	MaxMs     float64 `json:"max_ms"`
	// BurnRate is the error-budget burn rate: error rate divided by the
	// budget (1 - availability target). 1.0 burns the budget exactly at
	// the rate it refills; >1 exhausts it early.
	BurnRate float64 `json:"burn_rate"`
}

// collect merges the buckets of s covering window, as of now.
func (e *SLOEngine) collect(s *sloSeries, window time.Duration) (sk []*LatencySketch, total, errs uint64) {
	nowEpoch := e.cfg.now().UnixNano() / int64(e.bucketDur)
	span := int64(window / e.bucketDur)
	if span < 1 {
		span = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.epoch < 0 || b.epoch > nowEpoch || nowEpoch-b.epoch >= span {
			continue
		}
		sk = append(sk, b.sketch)
		total += b.total
		errs += b.errors
	}
	return sk, total, errs
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (e *SLOEngine) window(name string, window time.Duration, series []*sloSeries) WindowStats {
	var sketches []*LatencySketch
	var total, errs uint64
	for _, s := range series {
		sk, t, er := e.collect(s, window)
		sketches = append(sketches, sk...)
		total += t
		errs += er
	}
	merged := MergeSketches(sketches...)
	w := WindowStats{Window: name, Count: total, Errors: errs}
	if total > 0 {
		w.ErrorRate = float64(errs) / float64(total)
		w.BurnRate = w.ErrorRate / (1 - e.cfg.AvailabilityTarget)
	}
	w.P50Ms = durMs(merged.Quantile(0.50))
	w.P90Ms = durMs(merged.Quantile(0.90))
	w.P99Ms = durMs(merged.Quantile(0.99))
	w.P999Ms = durMs(merged.Quantile(0.999))
	w.MaxMs = durMs(merged.Max())
	return w
}

// RouteStatus is the per-route block of SLOStatus.
type RouteStatus struct {
	Route string      `json:"route"`
	Fast  WindowStats `json:"fast"`
	Slow  WindowStats `json:"slow"`
}

// SLOStatus is the JSON shape served at /v1/slo.
type SLOStatus struct {
	LatencyTargetMs    float64       `json:"latency_target_ms"`
	LatencyQuantile    float64       `json:"latency_quantile"`
	AvailabilityTarget float64       `json:"availability_target"`
	FastWindow         string        `json:"fast_window"`
	SlowWindow         string        `json:"slow_window"`
	Fast               WindowStats   `json:"fast"`
	Slow               WindowStats   `json:"slow"`
	LatencyOK          bool          `json:"latency_ok"`
	AvailabilityOK     bool          `json:"availability_ok"`
	Routes             []RouteStatus `json:"routes"`
}

// quantileMs picks the configured objective quantile out of w.
func (e *SLOEngine) quantileMs(w WindowStats) float64 {
	switch {
	case e.cfg.LatencyQuantile <= 0.50:
		return w.P50Ms
	case e.cfg.LatencyQuantile <= 0.90:
		return w.P90Ms
	case e.cfg.LatencyQuantile <= 0.99:
		return w.P99Ms
	default:
		return w.P999Ms
	}
}

// Status computes the full SLO report. Verdicts are judged on the fast
// window: LatencyOK when the objective quantile is under target (vacuously
// true with no traffic), AvailabilityOK when the fast burn rate is <= 1.
func (e *SLOEngine) Status() SLOStatus {
	if e == nil {
		e = NewSLOEngine(SLOConfig{})
	}
	e.mu.RLock()
	names := make([]string, 0, len(e.routes))
	for name := range e.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	all := make([]*sloSeries, 0, len(names))
	byName := make([]*sloSeries, len(names))
	for i, name := range names {
		byName[i] = e.routes[name]
		all = append(all, e.routes[name])
	}
	e.mu.RUnlock()

	st := SLOStatus{
		LatencyTargetMs:    durMs(e.cfg.LatencyTarget),
		LatencyQuantile:    e.cfg.LatencyQuantile,
		AvailabilityTarget: e.cfg.AvailabilityTarget,
		FastWindow:         e.cfg.FastWindow.String(),
		SlowWindow:         e.cfg.SlowWindow.String(),
		Fast:               e.window("fast", e.cfg.FastWindow, all),
		Slow:               e.window("slow", e.cfg.SlowWindow, all),
		Routes:             make([]RouteStatus, 0, len(names)),
	}
	st.LatencyOK = st.Fast.Count == 0 ||
		e.quantileMs(st.Fast) <= st.LatencyTargetMs
	st.AvailabilityOK = st.Fast.BurnRate <= 1
	for i, name := range names {
		one := []*sloSeries{byName[i]}
		st.Routes = append(st.Routes, RouteStatus{
			Route: name,
			Fast:  e.window("fast", e.cfg.FastWindow, one),
			Slow:  e.window("slow", e.cfg.SlowWindow, one),
		})
	}
	return st
}

// Instrument registers grdf_slo_* metrics on reg, computed on scrape from
// the engine's windows. Gauges carry a window label ("fast"/"slow"); the
// latency target and breach indicators are unlabelled. The objective's
// quantile and availability target are on /v1/slo.
func (e *SLOEngine) Instrument(reg *Registry) {
	if e == nil || reg == nil {
		return
	}
	reg.Gauge("grdf_slo_latency_target_seconds",
		"Configured latency objective.").Set(e.cfg.LatencyTarget.Seconds())
	for _, w := range []struct {
		name string
		dur  time.Duration
	}{{"fast", e.cfg.FastWindow}, {"slow", e.cfg.SlowWindow}} {
		w := w
		stats := func() WindowStats {
			e.mu.RLock()
			all := make([]*sloSeries, 0, len(e.routes))
			for _, s := range e.routes {
				all = append(all, s)
			}
			e.mu.RUnlock()
			return e.window(w.name, w.dur, all)
		}
		reg.GaugeFunc("grdf_slo_latency_seconds",
			"Objective-quantile latency over the window.",
			func() float64 { return e.quantileMs(stats()) / 1e3 },
			"window", w.name)
		reg.GaugeFunc("grdf_slo_error_rate",
			"Fraction of requests failing (status >= 500) over the window.",
			func() float64 { return stats().ErrorRate },
			"window", w.name)
		reg.GaugeFunc("grdf_slo_burn_rate",
			"Error-budget burn rate over the window (1.0 = budget spent "+
				"exactly as it refills).",
			func() float64 { return stats().BurnRate },
			"window", w.name)
	}
	reg.GaugeFunc("grdf_slo_latency_breached",
		"1 when the fast-window objective-quantile latency exceeds target.",
		func() float64 {
			if st := e.Status(); !st.LatencyOK {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("grdf_slo_availability_breached",
		"1 when the fast-window burn rate exceeds 1.",
		func() float64 {
			if st := e.Status(); !st.AvailabilityOK {
				return 1
			}
			return 0
		})
}
