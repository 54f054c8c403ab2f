package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"repro/internal/federation"
	"repro/internal/gsacs"
)

// E14 measures the router's fault tolerance: answered-request rate and
// tail latency in front of one healthy member and 0, 1 or 2 flaky ones, with
// the circuit breakers on and off. Each member is a G-SACS server over HTTP,
// as a replica is. A request counts as answered when it carries the healthy
// member's bytes AND completes inside the SLO — a slow answer is a missed
// answer for the Section 7.1 emergency-response consumer.

const (
	e14SourceTimeout = 20 * time.Millisecond
	e14SLO           = 30 * time.Millisecond
	// e14Warmup requests per cell warm the breakers: each flaky member is
	// first in line on at least a third of the requests, so it has failed
	// the breaker threshold (5) times within 15.
	e14Warmup = 15
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
		ID:      "E14",
		Title:   "Router fault tolerance: answered rate and tail latency",
		Columns: []string{"flaky", "breaker", "requests", "answered", "rate", "p50", "p99"},
	}

	serve := func() *httptest.Server {
		e, _ := scenarioEngine(41, 8)
		return httptest.NewServer(gsacs.NewServer(e, nil))
	}
	healthy := serve()
	defer healthy.Close()
	rawQuery := "role=EmergencyResponse&q=" + url.QueryEscape(e14Query)

	// Baseline: what the healthy member answers.
	base, err := federation.NewRemoteSource("baseline", healthy.URL, nil).Get(context.Background(),
		federation.Request{Path: federation.QueryPath, RawQuery: rawQuery})
	if err != nil || base.Status != http.StatusOK {
		t.AddNote("baseline query failed: %v %+v", err, base)
		return t
	}

	for _, flaky := range []int{0, 1, 2} {
		for _, breakerOn := range []bool{true, false} {
			if flaky == 0 && !breakerOn {
				continue // identical to the breaker-on cell by construction
			}
			answered, p50, p99 := e14Cell(serve, healthy.URL, rawQuery, base.Body, flaky, breakerOn, requests)
			t.AddRow(fmt.Sprintf("%d", flaky), mark(breakerOn),
				fmt.Sprintf("%d", requests),
				fmt.Sprintf("%d", answered),
				fmt.Sprintf("%.1f%%", 100*float64(answered)/float64(requests)),
				p50.Round(time.Microsecond).String(),
				p99.Round(time.Microsecond).String())
		}
	}
	t.AddNote("answered = the healthy member's bytes within the %s SLO; per-attempt timeout %s; a request goes to one member, from a rotating start, and moves on past a failed one",
		e14SLO, e14SourceTimeout)
	t.AddNote("flaky members hang 65%% / error 35%% of calls (never succeed); first %d requests per cell warm the breakers and are not measured", e14Warmup)
	t.AddNote("expected shape: breaker on holds the answered rate near 100%% by skipping sick members at once; breaker off re-waits the attempt timeout whenever a sick member is first in line, dragging p99 past the SLO")
	return t
}

// e14Cell runs one (flaky count, breaker setting) cell and reports the
// answered count plus latency percentiles.
func e14Cell(serve func() *httptest.Server, healthy, rawQuery string, want []byte,
	flaky int, breakerOn bool, requests int,
) (answered int, p50, p99 time.Duration) {
	sources := []federation.Source{federation.NewRemoteSource("healthy", healthy, nil)}
	for i := 0; i < flaky; i++ {
		member := serve()
		defer member.Close()
		sources = append(sources, federation.NewFaultySource(
			federation.NewRemoteSource(fmt.Sprintf("flaky%d", i+1), member.URL, nil),
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
		return 0, 0, 0
	}

	latencies := make([]time.Duration, 0, requests)
	for i := 0; i < e14Warmup+requests; i++ {
		start := time.Now()
		ans, err := fed.Forward(context.Background(), federation.Request{Path: federation.QueryPath, RawQuery: rawQuery})
		elapsed := time.Since(start)
		if i < e14Warmup {
			continue
		}
		latencies = append(latencies, elapsed)
		if err == nil && ans.Status == http.StatusOK && bytes.Equal(ans.Body, want) && elapsed <= e14SLO {
			answered++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return answered, percentile(latencies, 0.50), percentile(latencies, 0.99)
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
