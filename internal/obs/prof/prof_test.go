package prof

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestTriggerCaptures(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Ring: 4, CPUWindow: 50 * time.Millisecond, Registry: reg})
	if !p.Trigger("manual") {
		t.Fatal("first trigger suppressed")
	}
	waitFor(t, 5*time.Second, func() bool { return len(p.List()) == 1 })
	m := p.List()[0]
	if m.Reason != "manual" || m.ID != 1 {
		t.Errorf("unexpected meta: %+v", m)
	}
	if m.HeapBytes == 0 {
		t.Error("heap profile empty")
	}
	if m.Goroutines <= 0 {
		t.Error("goroutine count missing")
	}
	c, ok := p.Get(m.ID)
	if !ok || len(c.Heap) != m.HeapBytes {
		t.Error("Get did not return the capture payload")
	}
	if got := reg.Counter("grdf_prof_captures_total", "", "reason", "manual").Value(); got != 1 {
		t.Errorf("grdf_prof_captures_total{reason=manual} = %v, want 1", got)
	}
}

func TestTriggerMinGapSuppression(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Ring: 4, CPUWindow: 10 * time.Millisecond, MinGap: time.Hour, Registry: reg})
	if !p.Trigger("overload") {
		t.Fatal("first trigger suppressed")
	}
	waitFor(t, 5*time.Second, func() bool { return len(p.List()) == 1 })
	if p.Trigger("overload") {
		t.Error("second trigger inside MinGap was not suppressed")
	}
	if got := len(p.List()); got != 1 {
		t.Errorf("ring holds %d captures, want 1", got)
	}
	if got := reg.Counter("grdf_prof_suppressed_total", "").Value(); got != 1 {
		t.Errorf("grdf_prof_suppressed_total = %v, want 1", got)
	}
}

func TestRingBounded(t *testing.T) {
	p := New(Config{Ring: 2, CPUWindow: time.Millisecond, MinGap: time.Nanosecond})
	for i := 0; i < 5; i++ {
		p.Trigger("manual")
		waitFor(t, 5*time.Second, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return !p.inFlight
		})
	}
	list := p.List()
	if len(list) != 2 {
		t.Fatalf("ring holds %d, want 2", len(list))
	}
	if list[0].ID <= list[1].ID {
		t.Errorf("list not newest-first: %+v", list)
	}
}

func TestBurnWatchFires(t *testing.T) {
	var burning atomic.Bool
	p := New(Config{Ring: 4, CPUWindow: time.Millisecond, MinGap: time.Millisecond,
		Burn: func() bool { return burning.Load() }})
	p.Start()
	defer p.Stop()
	burning.Store(true)
	waitFor(t, 10*time.Second, func() bool {
		for _, m := range p.List() {
			if m.Reason == "fast_burn" {
				return true
			}
		}
		return false
	})
}
