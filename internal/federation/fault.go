package federation

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig drives deterministic (seeded) fault injection. The rates are
// probabilities per request drawn in order error → hang → garbage; whatever
// probability mass remains passes through to the wrapped source. All
// injected behavior honors ctx.
type FaultConfig struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// ErrorRate is the probability of answering with a synthetic 503.
	ErrorRate float64
	// HangRate is the probability of blocking until ctx is done — the
	// pathological peer that accepts the connection and never answers.
	HangRate float64
	// GarbageRate is the probability of answering 200 with a body that is
	// not JSON, which the router must not pass on.
	GarbageRate float64
	// Latency (± LatencyJitter, uniform) is added to every request,
	// injected faults included.
	Latency       time.Duration
	LatencyJitter time.Duration
}

// FaultStats counts what a FaultySource actually injected.
type FaultStats struct {
	Requests, Errors, Hangs, Garbage, PassedThrough int
}

// FaultySource wraps a Source with seeded latency/error/hang/garbage
// injection for chaos testing. Safe for concurrent use; the shared rng is
// locked so a fixed seed yields a fixed fault sequence under sequential
// load.
type FaultySource struct {
	inner Source
	cfg   FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewFaultySource wraps inner with fault injection.
func NewFaultySource(inner Source, cfg FaultConfig) *FaultySource {
	return &FaultySource{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Source, passing the wrapped identity through.
func (f *FaultySource) Name() string { return f.inner.Name() }

// Stats snapshots the injection counters.
func (f *FaultySource) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Get implements Source with fault injection in front of the inner source.
func (f *FaultySource) Get(ctx context.Context, req Request) (*Answer, error) {
	f.mu.Lock()
	roll := f.rng.Float64()
	delay := f.cfg.Latency
	if f.cfg.LatencyJitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(f.cfg.LatencyJitter)))
	}
	f.stats.Requests++
	const (
		passThrough = iota
		injectErr
		injectHang
		injectGarbage
	)
	mode := passThrough
	switch {
	case roll < f.cfg.ErrorRate:
		mode, f.stats.Errors = injectErr, f.stats.Errors+1
	case roll < f.cfg.ErrorRate+f.cfg.HangRate:
		mode, f.stats.Hangs = injectHang, f.stats.Hangs+1
	case roll < f.cfg.ErrorRate+f.cfg.HangRate+f.cfg.GarbageRate:
		mode, f.stats.Garbage = injectGarbage, f.stats.Garbage+1
	default:
		f.stats.PassedThrough++
	}
	f.mu.Unlock()

	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, err
		}
	}
	switch mode {
	case injectErr:
		return nil, &StatusError{Status: 503, Code: "injected", Msg: "fault injection: synthetic error"}
	case injectHang:
		<-ctx.Done()
		return nil, ctx.Err()
	case injectGarbage:
		return &Answer{Status: 200, ContentType: "application/json", Body: []byte("\x00\xfffault-injected")}, nil
	default:
		return f.inner.Get(ctx, req)
	}
}
