// Package workload aggregates per-query-shape statistics: the server's
// workload-level lens. Every request that carried a query lands in a
// bounded, lock-striped table keyed by its parse-time fingerprint (see
// internal/sparql/fingerprint.go), accumulating counts, a sketch of the
// requests' latency, row totals, planner reorders, plan-quality drift,
// shed/error outcomes and a trace exemplar. The table books the
// record the HTTP middleware closes (obs.Request), the same record the route
// histogram and the SLO window book. GET /v1/queries serves the table; the
// grdf_workload_* and grdf_plan_misestimate_total metrics export its totals.
//
// Cardinality is bounded with the space-saving heavy-hitters scheme: each
// stripe holds at most capacity/stripes entries, and when a new fingerprint
// arrives at a full stripe it replaces the stripe's smallest entry,
// inheriting its count as the admission error bound (reported per entry as
// count_error). Heavy hitters therefore survive churn; one-off shapes
// rotate through the tail.
package workload

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// numStripes spreads fingerprints over independently locked segments so a
// hot table does not serialize the query path.
const numStripes = 16

// DriftWarnRatio is the est-vs-actual ratio past which a fingerprint is
// considered planner-misjudged: a structured warning fires when an entry
// first crosses it, and the entry's drift band reports it from then on.
const DriftWarnRatio = 10

// Config tunes a Table.
type Config struct {
	// Capacity bounds the number of fingerprints tracked across the whole
	// table (default 256, minimum one per stripe).
	Capacity int
	// Registry, when set, receives the grdf_workload_* metrics and the
	// grdf_plan_misestimate_total{band} counter.
	Registry *obs.Registry
	// Logger, when set, receives the structured plan-drift warning the
	// first time a fingerprint crosses DriftWarnRatio.
	Logger *slog.Logger
}

// entry is one fingerprint's accumulated state. Guarded by its stripe lock.
type entry struct {
	fp         uint64
	canonical  string
	kind       string
	count      uint64
	countErr   uint64 // space-saving admission error bound
	errors     uint64
	shed       uint64
	reorders   uint64
	rowsScan   uint64
	rowsOut    uint64
	sketch     *obs.LatencySketch
	maxMis     float64
	misSteps   uint64 // observations at or past DriftWarnRatio
	warned     bool
	lastTrace  string
	lastSeenNS int64
}

type stripe struct {
	mu      sync.Mutex
	entries map[uint64]*entry
}

// Table is the lock-striped per-fingerprint stats table.
type Table struct {
	perStripe int
	stripes   [numStripes]stripe
	logger    *slog.Logger

	observations *obs.Counter
	evictions    *obs.Counter
	misBand      func(band string) *obs.Counter
}

// New builds a Table and registers its metrics on cfg.Registry (nil skips
// metrics).
func New(cfg Config) *Table {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 256
	}
	per := capacity / numStripes
	if per < 1 {
		per = 1
	}
	t := &Table{perStripe: per, logger: cfg.Logger}
	for i := range t.stripes {
		t.stripes[i].entries = make(map[uint64]*entry, per)
	}
	if reg := cfg.Registry; reg != nil {
		t.observations = reg.Counter("grdf_workload_observations_total",
			"Query requests that ran, folded into the workload stats table.")
		t.evictions = reg.Counter("grdf_workload_evictions_total",
			"Fingerprints displaced by the space-saving top-K bound.")
		t.misBand = func(band string) *obs.Counter {
			return reg.Counter("grdf_plan_misestimate_total",
				"Evaluations whose worst plan step missed its cardinality estimate, by drift band.",
				"band", band)
		}
		reg.GaugeFunc("grdf_workload_fingerprints",
			"Distinct query fingerprints currently tracked.",
			func() float64 { return float64(t.Len()) })
	}
	return t
}

func (t *Table) stripeFor(fp uint64) *stripe {
	// The fingerprint is already an FNV-64 hash; its low bits are
	// well-mixed enough to pick a stripe directly.
	return &t.stripes[fp%numStripes]
}

// upsert returns the entry for fp in its locked stripe, admitting (and, at
// capacity, displacing the smallest entry) as needed. The caller must hold
// st.mu and must not retain the entry past unlock.
func (t *Table) upsert(st *stripe, fp uint64, canonical, kind string) *entry {
	if e, ok := st.entries[fp]; ok {
		return e
	}
	e := &entry{fp: fp, canonical: canonical, kind: kind, sketch: obs.NewLatencySketch()}
	if len(st.entries) >= t.perStripe {
		// Space-saving: displace the minimum-count entry; the newcomer
		// inherits its count so a true heavy hitter can never be held out
		// by a stream of one-off shapes.
		var min *entry
		for _, cand := range st.entries {
			if min == nil || cand.count < min.count {
				min = cand
			}
		}
		delete(st.entries, min.fp)
		e.count, e.countErr = min.count, min.count
		t.evictions.Inc()
	}
	st.entries[fp] = e
	return e
}

// Observe books one closed request into its fingerprint's entry. A shed
// request counts as shed and as nothing else: it never ran. Any other counts
// once, with the request's latency and the outcome it ended with. A request
// that carried no query is not booked.
func (t *Table) Observe(r *obs.Request) {
	if t == nil || r.Kind == "" {
		return
	}
	st := t.stripeFor(r.Fingerprint)
	st.mu.Lock()
	e := t.upsert(st, r.Fingerprint, r.Canonical, r.Kind)
	e.lastSeenNS = time.Now().UnixNano()
	e.lastTrace = r.TraceID
	if r.Outcome == obs.OutcomeShed {
		e.shed++
		st.mu.Unlock()
		return
	}
	e.count++
	e.sketch.Record(r.Elapsed)
	e.rowsScan += uint64(r.RowsScanned)
	e.rowsOut += uint64(r.RowsOut)
	if r.Reordered {
		e.reorders++
	}
	if r.Outcome == obs.OutcomeError {
		e.errors++
	}
	if r.MaxMisestimate > e.maxMis {
		e.maxMis = r.MaxMisestimate
	}
	if r.MaxMisestimate >= DriftWarnRatio {
		e.misSteps++
	}
	warn := r.MaxMisestimate >= DriftWarnRatio && !e.warned
	if warn {
		e.warned = true
	}
	canonical, worst := e.canonical, e.maxMis
	st.mu.Unlock()

	t.observations.Inc()
	if band := misestimateBand(r.MaxMisestimate); band != "" && t.misBand != nil {
		t.misBand(band).Inc()
	}
	if warn && t.logger != nil {
		// The raw signal for future planner fixes: this shape's estimates
		// are off by an order of magnitude.
		t.logger.Warn("plan drift",
			"fingerprint", fmt.Sprintf("%016x", r.Fingerprint),
			"misestimate", fmt.Sprintf("%.1f", worst),
			"query", canonical)
	}
}

// misestimateBand buckets a worst-step ratio for the misestimate counter;
// ratios under 2 are in-estimate and uncounted.
func misestimateBand(ratio float64) string {
	switch {
	case ratio >= 100:
		return "100x"
	case ratio >= DriftWarnRatio:
		return "10x"
	case ratio >= 2:
		return "2x"
	}
	return ""
}

// Snapshot is one fingerprint's exported state.
type Snapshot struct {
	// Fingerprint is the zero-padded hex form of the FNV-64 hash.
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind,omitempty"`
	// Example is the redacted canonical query form.
	Example string `json:"example"`
	Count   uint64 `json:"count"`
	// CountError bounds the space-saving admission overestimate: the true
	// count is within [count-count_error, count].
	CountError uint64  `json:"count_error,omitempty"`
	Errors     uint64  `json:"errors,omitempty"`
	Shed       uint64  `json:"shed,omitempty"`
	Reorders   uint64  `json:"plan_reorders,omitempty"`
	RowsScan   uint64  `json:"rows_scanned"`
	RowsOut    uint64  `json:"rows_out"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	MeanMs     float64 `json:"mean_ms"`
	// MaxMisestimate is the worst est-vs-actual plan ratio seen; DriftBand
	// labels it ("2x", "10x", "100x"; empty below 2).
	MaxMisestimate float64 `json:"max_misestimate,omitempty"`
	DriftBand      string  `json:"drift_band,omitempty"`
	// DriftCount counts evaluations at or past DriftWarnRatio.
	DriftCount  uint64    `json:"drift_count,omitempty"`
	LastTraceID string    `json:"last_trace_id,omitempty"`
	LastSeen    time.Time `json:"last_seen"`
}

func (e *entry) snapshot() Snapshot {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return Snapshot{
		Fingerprint:    fmt.Sprintf("%016x", e.fp),
		Kind:           e.kind,
		Example:        e.canonical,
		Count:          e.count,
		CountError:     e.countErr,
		Errors:         e.errors,
		Shed:           e.shed,
		Reorders:       e.reorders,
		RowsScan:       e.rowsScan,
		RowsOut:        e.rowsOut,
		P50Ms:          ms(e.sketch.Quantile(0.50)),
		P90Ms:          ms(e.sketch.Quantile(0.90)),
		P99Ms:          ms(e.sketch.Quantile(0.99)),
		MaxMs:          ms(e.sketch.Max()),
		MeanMs:         ms(e.sketch.Mean()),
		MaxMisestimate: e.maxMis,
		DriftBand:      misestimateBand(e.maxMis),
		DriftCount:     e.misSteps,
		LastTraceID:    e.lastTrace,
		LastSeen:       time.Unix(0, e.lastSeenNS),
	}
}

// TopK returns up to n snapshots ordered by count (descending; ties by
// fingerprint for determinism).
func (t *Table) TopK(n int) []Snapshot {
	if t == nil || n <= 0 {
		return nil
	}
	all := t.snapshots()
	sortSnapshots(all)
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Get returns the snapshot for one fingerprint.
func (t *Table) Get(fp uint64) (Snapshot, bool) {
	if t == nil {
		return Snapshot{}, false
	}
	st := t.stripeFor(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[fp]
	if !ok {
		return Snapshot{}, false
	}
	return e.snapshot(), true
}

// Len counts tracked fingerprints.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		n += len(st.entries)
		st.mu.Unlock()
	}
	return n
}

// Capacity is the table's fingerprint bound.
func (t *Table) Capacity() int {
	if t == nil {
		return 0
	}
	return t.perStripe * numStripes
}

func (t *Table) snapshots() []Snapshot {
	out := make([]Snapshot, 0, 64)
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for _, e := range st.entries {
			out = append(out, e.snapshot())
		}
		st.mu.Unlock()
	}
	return out
}

func sortSnapshots(s []Snapshot) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Count != s[j].Count {
			return s[i].Count > s[j].Count
		}
		return s[i].Fingerprint < s[j].Fingerprint
	})
}
