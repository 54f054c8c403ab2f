package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/gsacs"
	"repro/internal/seconto"
)

// E14 measures the federation layer's fault tolerance: answered-request
// rate and tail latency against 0, 1 and 2 flaky sources, with the circuit
// breakers on and off. A request counts as answered when it carries every
// solution the healthy source alone produces AND completes inside the SLO —
// a slow answer is a missed answer for the Section 7.1 emergency-response
// consumer.

const (
	e14SourceTimeout = 20 * time.Millisecond
	e14SLO           = 30 * time.Millisecond
	e14Warmup        = 10
)

const e14Query = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`

// E14Federation runs the answered-rate / tail-latency matrix. requests is
// the measured request count per cell (0 uses the default 150).
func E14Federation(requests int) *Table {
	if requests <= 0 {
		requests = 150
	}
	t := &Table{
		ID:    "E14",
		Title: "Federation fault tolerance: answered rate and tail latency",
		Columns: []string{"flaky", "breaker", "requests", "answered", "rate",
			"degraded", "p50", "p99"},
	}

	engine := func() *gsacs.Engine {
		e, _ := scenarioEngine(41, 8)
		return e
	}

	// Baseline: what the healthy source alone answers.
	healthyEngine := engine()
	base, err := healthyEngine.QueryCtx(context.Background(),
		datagen.RoleEmergency, seconto.ActionView, e14Query)
	if err != nil {
		t.AddNote("baseline query failed: %v", err)
		return t
	}
	baseline := federation.FromSPARQL(base)
	if len(baseline.Rows) == 0 {
		t.AddNote("baseline query returned no rows; matrix is vacuous")
		return t
	}

	for _, flaky := range []int{0, 1, 2} {
		for _, breakerOn := range []bool{true, false} {
			if flaky == 0 && !breakerOn {
				continue // identical to the breaker-on cell by construction
			}
			answered, degraded, p50, p99 := e14Cell(engine, healthyEngine,
				baseline, flaky, breakerOn, requests)
			t.AddRow(fmt.Sprintf("%d", flaky), mark(breakerOn),
				fmt.Sprintf("%d", requests),
				fmt.Sprintf("%d", answered),
				fmt.Sprintf("%.1f%%", 100*float64(answered)/float64(requests)),
				fmt.Sprintf("%d", degraded),
				p50.Round(time.Microsecond).String(),
				p99.Round(time.Microsecond).String())
		}
	}
	t.AddNote("answered = full healthy solution set within the %s SLO; per-source timeout %s",
		e14SLO, e14SourceTimeout)
	t.AddNote("flaky sources hang 65%% / error 35%% of calls (never succeed); first %d requests per cell warm the breakers and are not measured", e14Warmup)
	t.AddNote("expected shape: breaker on holds the answered rate near 100%% by failing sick sources fast; breaker off re-waits the source timeout every request, dragging p99 past the SLO")
	return t
}

// e14Cell runs one (flaky count, breaker setting) cell and reports the
// answered and degraded counts plus latency percentiles.
func e14Cell(engine func() *gsacs.Engine, healthy *gsacs.Engine,
	baseline *federation.Result, flaky int, breakerOn bool, requests int,
) (answered, degraded int, p50, p99 time.Duration) {
	sources := []federation.Source{federation.NewLocalSource("healthy", healthy)}
	for i := 0; i < flaky; i++ {
		sources = append(sources, federation.NewFaultySource(
			federation.NewLocalSource(fmt.Sprintf("flaky%d", i+1), engine()),
			federation.FaultConfig{
				// Always fail: a stray success would reset the breaker's
				// consecutive-failure count and blur the on/off comparison.
				Seed:      int64(100 + i),
				ErrorRate: 0.35,
				HangRate:  0.65,
			}))
	}
	fed, err := federation.New(federation.Config{
		SourceTimeout:  e14SourceTimeout,
		DisableBreaker: !breakerOn,
		Breaker: federation.BreakerConfig{
			Threshold: 5,
			Cooldown:  time.Minute, // no half-open probes inside a cell
		},
		Retry: federation.RetryConfig{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond},
	}, sources...)
	if err != nil {
		return 0, 0, 0, 0
	}

	want := make(map[string]bool, len(baseline.Rows))
	for _, row := range baseline.Rows {
		want[fmt.Sprint(row)] = true
	}
	complete := func(res *federation.Result) bool {
		if res == nil {
			return false
		}
		got := make(map[string]bool, len(res.Rows))
		for _, row := range res.Rows {
			sub := map[string]string{}
			for _, v := range baseline.Vars {
				if val, ok := row[v]; ok {
					sub[v] = val
				}
			}
			got[fmt.Sprint(sub)] = true
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}

	latencies := make([]time.Duration, 0, requests)
	for i := 0; i < e14Warmup+requests; i++ {
		start := time.Now()
		resp := fed.Query(context.Background(),
			datagen.RoleEmergency, seconto.ActionView, e14Query)
		elapsed := time.Since(start)
		if i < e14Warmup {
			continue
		}
		latencies = append(latencies, elapsed)
		if resp.Degraded {
			degraded++
		}
		if resp.Err == nil && complete(resp.Result) && elapsed <= e14SLO {
			answered++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return answered, degraded, percentile(latencies, 0.50), percentile(latencies, 0.99)
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
