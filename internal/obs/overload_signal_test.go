package obs

import (
	"sync"
	"testing"
	"time"
)

// TestSLOFastBurnTransitions walks the fast-burn verdict through the exact
// sequence the admission controller's Signal consumes: healthy → breached
// while the error burst is inside the fast window → diluted below the burn
// threshold by clean traffic → recovered once the burst ages out. The clock
// is injected, so each transition is pinned to a window boundary rather than
// to test timing.
func TestSLOFastBurnTransitions(t *testing.T) {
	clk := newSLOClock()
	e := testEngine(clk) // availability target 0.99 → 1% error budget

	// Healthy baseline.
	for i := 0; i < 100; i++ {
		e.Observe(served("/v1/query", time.Millisecond, 200))
	}
	if st := e.Status(); !st.AvailabilityOK {
		t.Fatalf("clean traffic breached: %+v", st.Fast)
	}

	// A burst of 5xx inside one bucket: 10 errors over 110 requests is a
	// ~9%% error rate against a 1%% budget — burn ≈ 9, breached.
	for i := 0; i < 10; i++ {
		e.Observe(served("/v1/query", time.Millisecond, 500))
	}
	st := e.Status()
	if st.AvailabilityOK || st.Fast.BurnRate <= 1 {
		t.Fatalf("burst did not breach: burn=%.2f ok=%v", st.Fast.BurnRate, st.AvailabilityOK)
	}

	// Clean traffic in a later bucket dilutes the rate below the budget
	// while the errors are still inside the window: 10/1610 < 1%.
	clk.advance(time.Minute)
	for i := 0; i < 1500; i++ {
		e.Observe(served("/v1/query", time.Millisecond, 200))
	}
	st = e.Status()
	if !st.AvailabilityOK {
		t.Fatalf("diluted burn still breached: burn=%.2f errors=%d count=%d",
			st.Fast.BurnRate, st.Fast.Errors, st.Fast.Count)
	}
	if st.Fast.Errors != 10 {
		t.Fatalf("errors aged out early: %+v", st.Fast)
	}

	// Past the fast window the burst is gone entirely and the verdict is
	// clean even with no fresh traffic — the signal must decay on its own,
	// or a recovered server would shed forever.
	clk.advance(6 * time.Minute)
	st = e.Status()
	if st.Fast.Count != 0 || !st.AvailabilityOK {
		t.Fatalf("fast window failed to expire: %+v", st.Fast)
	}
}

// TestReadSaturationUnderChurn hammers the in-flight gauge from many
// goroutines while concurrent readers sample saturation — the exact overlap
// the admission signal cache produces against live middleware. Run under
// -race this pins the absence of unsynchronized access; the value assertions
// pin that a mid-churn read is a coherent snapshot, not garbage.
func TestReadSaturationUnderChurn(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("grdf_http_in_flight_requests", "Requests currently being served.")
	const writers, readers, iters = 8, 4, 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	errc := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := ReadSaturation(reg)
				if s.Goroutines < 1 || s.HeapAllocBytes == 0 {
					select {
					case errc <- "implausible runtime stats mid-churn":
					default:
					}
					return
				}
				// The gauge only ever steps ±1 around zero.
				if s.InFlightHTTP < 0 || s.InFlightHTTP > writers {
					select {
					case errc <- "in-flight gauge read outside churn envelope":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if msg, ok := <-errc; ok {
		t.Fatal(msg)
	}
	if got := ReadSaturation(reg).InFlightHTTP; got != 0 {
		t.Fatalf("in-flight settled at %v, want 0", got)
	}
}
