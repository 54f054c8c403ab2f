package workload

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// reqFor is a closed record of one request that ran query shape fp.
func reqFor(fp uint64, d time.Duration) *obs.Request {
	return &obs.Request{
		Fingerprint: fp,
		Canonical:   fmt.Sprintf("SELECT ?v0 WHERE {BGP[?v0 <http://ex/p%d> $iri.]}", fp),
		Kind:        "SELECT",
		Outcome:     obs.OutcomeOK,
		Elapsed:     d,
		RowsScanned: 10,
		RowsOut:     3,
	}
}

// with returns r changed by edit.
func with(r *obs.Request, edit func(*obs.Request)) *obs.Request {
	edit(r)
	return r
}

func TestTableAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	tab := New(Config{Capacity: 64, Registry: reg})
	for i := 0; i < 100; i++ {
		tab.Observe(reqFor(7, time.Millisecond))
	}
	tab.Observe(with(reqFor(7, time.Millisecond), func(r *obs.Request) {
		r.Outcome, r.Reordered, r.TraceID = obs.OutcomeError, true, "t-123"
	}))
	tab.Observe(with(reqFor(7, time.Microsecond), func(r *obs.Request) {
		r.Outcome, r.TraceID = obs.OutcomeShed, "t-124"
	}))
	// A request that carried no query is not the table's.
	tab.Observe(&obs.Request{Route: "/v1/view", Outcome: obs.OutcomeOK})
	snap, ok := tab.Get(7)
	if !ok {
		t.Fatal("fingerprint 7 missing")
	}
	if snap.Count != 101 || snap.Errors != 1 || snap.Shed != 1 || snap.Reorders != 1 {
		t.Errorf("unexpected snapshot: %+v", snap)
	}
	if tab.Len() != 1 {
		t.Errorf("table holds %d fingerprints, want 1", tab.Len())
	}
	if snap.LastTraceID != "t-124" {
		t.Errorf("exemplar %q, want the last request's", snap.LastTraceID)
	}
	if snap.P50Ms <= 0 || snap.P99Ms < snap.P50Ms {
		t.Errorf("implausible quantiles: p50=%v p99=%v", snap.P50Ms, snap.P99Ms)
	}
	// The shed ran no rows and is no latency sample: 101 requests of 1ms.
	if snap.RowsScan != 1010 || snap.RowsOut != 303 || snap.MeanMs != 1 {
		t.Errorf("row totals or mean wrong: %+v", snap)
	}
	if got := reg.Counter("grdf_workload_observations_total", "").Value(); got != 101 {
		t.Errorf("grdf_workload_observations_total = %v, want 101 (the shed never ran)", got)
	}
}

func TestTableBounded(t *testing.T) {
	reg := obs.NewRegistry()
	tab := New(Config{Capacity: 64, Registry: reg})
	// A heavy hitter first, then a long tail of one-off shapes.
	for i := 0; i < 500; i++ {
		tab.Observe(reqFor(1, time.Millisecond))
	}
	for fp := uint64(2); fp < 5000; fp++ {
		tab.Observe(reqFor(fp, time.Millisecond))
	}
	if n, cap := tab.Len(), tab.Capacity(); n > cap {
		t.Fatalf("table exceeded its bound: %d > %d", n, cap)
	}
	// The space-saving discipline must keep the heavy hitter on top.
	top := tab.TopK(1)
	if len(top) != 1 || top[0].Fingerprint != fmt.Sprintf("%016x", uint64(1)) {
		t.Fatalf("heavy hitter displaced: %+v", top)
	}
	if top[0].Count < 500 {
		t.Errorf("heavy hitter count dropped: %+v", top[0])
	}
	// 4999 shapes through 64 places: every admission past the bound evicts.
	if got, want := reg.Counter("grdf_workload_evictions_total", "").Value(), float64(4999-tab.Len()); got != want {
		t.Errorf("grdf_workload_evictions_total = %v, want %v", got, want)
	}
	fingerprints := -1.0
	for _, m := range reg.Snapshot() {
		if m.Name == "grdf_workload_fingerprints" {
			fingerprints = m.Value
		}
	}
	if fingerprints != float64(tab.Len()) {
		t.Errorf("grdf_workload_fingerprints = %v, want %d", fingerprints, tab.Len())
	}
}

func TestTopKOrdering(t *testing.T) {
	tab := New(Config{Capacity: 64})
	for fp := uint64(1); fp <= 5; fp++ {
		for i := uint64(0); i < fp*10; i++ {
			tab.Observe(reqFor(fp, time.Millisecond))
		}
	}
	top := tab.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d", len(top))
	}
	if top[0].Count < top[1].Count || top[1].Count < top[2].Count {
		t.Errorf("TopK not descending: %v %v %v", top[0].Count, top[1].Count, top[2].Count)
	}
}

func TestMisestimateBandsAndDrift(t *testing.T) {
	reg := obs.NewRegistry()
	tab := New(Config{Capacity: 64, Registry: reg})
	tab.Observe(with(reqFor(9, time.Millisecond), func(r *obs.Request) { r.MaxMisestimate = 1.5 }))
	snap, _ := tab.Get(9)
	if snap.DriftBand != "" {
		t.Errorf("in-estimate observation got band %q", snap.DriftBand)
	}
	tab.Observe(with(reqFor(9, time.Millisecond), func(r *obs.Request) { r.MaxMisestimate = 40 }))
	snap, _ = tab.Get(9)
	if snap.DriftBand != "10x" || snap.MaxMisestimate != 40 || snap.DriftCount != 1 {
		t.Errorf("drift not tracked: %+v", snap)
	}
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "grdf_plan_misestimate_total" {
			found = true
		}
	}
	if !found {
		t.Error("grdf_plan_misestimate_total not registered after a misestimate")
	}
}

func TestTableRaceClean(t *testing.T) {
	tab := New(Config{Capacity: 32, Registry: obs.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				fp := uint64(g*37+i) % 200
				switch i % 3 {
				case 0:
					tab.Observe(reqFor(fp, time.Duration(i)*time.Microsecond))
				case 1:
					tab.Observe(with(reqFor(fp, 0), func(r *obs.Request) { r.Outcome = obs.OutcomeShed }))
				default:
					tab.TopK(10)
					tab.Get(fp)
					tab.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() > tab.Capacity() {
		t.Fatalf("bound violated under concurrency: %d > %d", tab.Len(), tab.Capacity())
	}
}
