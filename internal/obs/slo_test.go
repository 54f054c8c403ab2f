package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// sloClock is an injectable clock for window tests.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{t: time.Unix(1_700_000_000, 0)} }

// served is the closed record of one request on route that took d and was
// answered with status.
func served(route string, d time.Duration, status int) *Request {
	return &Request{Route: route, Elapsed: d, Status: status, Outcome: OutcomeOK}
}

func testEngine(clk *sloClock) *SLOEngine {
	return NewSLOEngine(SLOConfig{
		LatencyTarget:      100 * time.Millisecond,
		AvailabilityTarget: 0.99,
		FastWindow:         5 * time.Minute,
		SlowWindow:         time.Hour,
		now:                clk.now,
	})
}

func TestSLOWindowQuantiles(t *testing.T) {
	clk := newSLOClock()
	e := testEngine(clk)
	for i := 0; i < 1000; i++ {
		e.Observe(served("/v1/query", time.Duration(i+1)*time.Millisecond, 200))
	}
	st := e.Status()
	if st.Fast.Count != 1000 || st.Slow.Count != 1000 {
		t.Fatalf("counts fast=%d slow=%d", st.Fast.Count, st.Slow.Count)
	}
	// p99 of 1..1000ms is 990ms; bucket error allowed.
	if rel := math.Abs(st.Fast.P99Ms-990) / 990; rel > 0.07 {
		t.Fatalf("fast p99 %.1fms, want ~990ms", st.Fast.P99Ms)
	}
	if st.Fast.ErrorRate != 0 || st.Fast.BurnRate != 0 {
		t.Fatalf("clean traffic burned budget: %+v", st.Fast)
	}
	if st.LatencyOK {
		t.Fatal("p99 990ms vs 100ms target must breach")
	}
	if !st.AvailabilityOK {
		t.Fatal("no errors: availability must pass")
	}
	if len(st.Routes) != 1 || st.Routes[0].Route != "/v1/query" {
		t.Fatalf("routes %+v", st.Routes)
	}
}

func TestSLOBurnRateAndExpiry(t *testing.T) {
	clk := newSLOClock()
	e := testEngine(clk)
	// 100 requests, 2 server errors: error rate 2%, budget 1%, burn 2x.
	for i := 0; i < 100; i++ {
		status := 200
		if i < 2 {
			status = 500
		}
		e.Observe(served("/v1/query", time.Millisecond, status))
	}
	st := e.Status()
	if math.Abs(st.Fast.BurnRate-2.0) > 1e-9 {
		t.Fatalf("fast burn %.3f, want 2.0", st.Fast.BurnRate)
	}
	if st.AvailabilityOK {
		t.Fatal("burn 2x must fail availability")
	}

	// Past the fast window the errors still burn the slow budget.
	clk.advance(6 * time.Minute)
	st = e.Status()
	if st.Fast.Count != 0 {
		t.Fatalf("fast window should have expired, count=%d", st.Fast.Count)
	}
	if st.Slow.Count != 100 || st.Slow.Errors != 2 {
		t.Fatalf("slow window lost data: %+v", st.Slow)
	}
	if !st.AvailabilityOK || !st.LatencyOK {
		t.Fatal("empty fast window must pass both objectives")
	}

	// Past the slow window everything ages out.
	clk.advance(time.Hour)
	st = e.Status()
	if st.Slow.Count != 0 {
		t.Fatalf("slow window should have expired, count=%d", st.Slow.Count)
	}
}

func TestSLOBucketReuseAfterWrap(t *testing.T) {
	clk := newSLOClock()
	e := testEngine(clk)
	e.Observe(served("/v1/query", 50*time.Millisecond, 200))
	// Advance exactly the ring length (61 one-minute buckets) so the
	// second record lands in the same slot and must reset it.
	clk.advance(61 * time.Minute)
	e.Observe(served("/v1/query", 10*time.Millisecond, 200))
	st := e.Status()
	if st.Slow.Count != 1 {
		t.Fatalf("stale bucket leaked into window: %+v", st.Slow)
	}
}

func TestSLONilEngine(t *testing.T) {
	var e *SLOEngine
	e.Observe(served("/x", time.Second, 500)) // must not panic
	st := e.Status()
	if !st.LatencyOK || !st.AvailabilityOK {
		t.Fatal("nil engine must report vacuous pass")
	}
	e.Instrument(NewRegistry())
}

func TestSLOInstrument(t *testing.T) {
	clk := newSLOClock()
	e := testEngine(clk)
	for i := 0; i < 10; i++ {
		e.Observe(served("/v1/query", 5*time.Millisecond, 200))
	}
	e.Observe(served("/v1/query", 5*time.Millisecond, 500))
	reg := NewRegistry()
	e.Instrument(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"grdf_slo_latency_seconds{window=\"fast\"}",
		"grdf_slo_error_rate{window=\"slow\"}",
		"grdf_slo_burn_rate{window=\"fast\"}",
		"grdf_slo_latency_target_seconds 0.1",
		"grdf_slo_latency_breached 0",
		"grdf_slo_availability_breached 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestReadSaturation(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("grdf_http_in_flight_requests",
		"Requests currently being served.").Set(3)
	s := ReadSaturation(reg)
	if s.Goroutines < 1 {
		t.Fatalf("goroutines %d", s.Goroutines)
	}
	if s.HeapAllocBytes == 0 || s.GOMAXPROCS < 1 {
		t.Fatalf("implausible saturation %+v", s)
	}
	if s.InFlightHTTP != 3 {
		t.Fatalf("in-flight %v, want 3", s.InFlightHTTP)
	}
	// nil registry still samples the runtime.
	if ReadSaturation(nil).Goroutines < 1 {
		t.Fatal("nil-registry saturation empty")
	}
}
