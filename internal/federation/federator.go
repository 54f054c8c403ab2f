package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Per-source request outcome labels used in the fed.source span's state and
// the grdf_fed_source_requests_total metric.
const (
	StateOK      = "ok"
	StateError   = "error"
	StateTimeout = "timeout"
	StateOpen    = "open" // skipped: circuit breaker rejected the request
	StateShed    = "shed" // refused: peer answered 429 (load shed, not a fault)
)

// Config tunes a Federator. Zero values select the defaults noted on each
// field.
type Config struct {
	// SourceTimeout bounds each attempt against one source (default 2s).
	SourceTimeout time.Duration
	// Retry tunes the per-source retry loop.
	Retry RetryConfig
	// Breaker tunes the per-source circuit breaker.
	Breaker BreakerConfig
	// DisableBreaker turns the breakers off (a request tries a sick source
	// before it moves on) — the E14 ablation arm.
	DisableBreaker bool
	// Metrics receives federation instrumentation (nil disables).
	Metrics *obs.Registry
}

// sourceState bundles one Source with its resilience companions and metric
// handles.
type sourceState struct {
	src     Source
	breaker *Breaker
	budget  *RetryBudget

	mOK, mErr, mTimeout, mOpen, mShed *obs.Counter
	mRetries                          *obs.Counter
	mLatency                          *obs.Histogram
}

// Federator forwards each read to one of its sources under the resilience
// stack. Safe for concurrent use.
type Federator struct {
	cfg     Config
	sources []*sourceState
	// next is the rotating start: request i tries source i mod n first, so
	// n healthy sources share the reads.
	next atomic.Uint64

	mFailed   *obs.Counter
	mRequests *obs.Counter
}

// New builds a Federator over sources. Source names must be unique: they
// key the per-source metric labels and spans.
func New(cfg Config, sources ...Source) (*Federator, error) {
	if len(sources) == 0 {
		return nil, errors.New("federation: no sources")
	}
	if cfg.SourceTimeout <= 0 {
		cfg.SourceTimeout = 2 * time.Second
	}
	cfg.Retry.defaults()
	f := &Federator{cfg: cfg}
	reg := cfg.Metrics
	f.mRequests = reg.Counter("grdf_fed_requests_total",
		"Routed queries by outcome.", "outcome", "ok")
	f.mFailed = reg.Counter("grdf_fed_requests_total",
		"Routed queries by outcome.", "outcome", "failed")
	seen := map[string]bool{}
	for _, src := range sources {
		name := src.Name()
		if seen[name] {
			return nil, fmt.Errorf("federation: duplicate source name %q", name)
		}
		seen[name] = true
		ss := &sourceState{
			src:      src,
			budget:   NewRetryBudget(cfg.Retry),
			mOK:      sourceCounter(reg, name, StateOK),
			mErr:     sourceCounter(reg, name, StateError),
			mTimeout: sourceCounter(reg, name, StateTimeout),
			mOpen:    sourceCounter(reg, name, StateOpen),
			mShed:    sourceCounter(reg, name, StateShed),
			mRetries: reg.Counter("grdf_fed_retries_total",
				"Retries issued per source.", "source", name),
			mLatency: reg.Histogram("grdf_fed_source_duration_seconds",
				"Per-source request latency (all attempts).", nil,
				"source", name),
		}
		if !cfg.DisableBreaker {
			bcfg := cfg.Breaker
			userHook := bcfg.OnTransition
			if reg != nil {
				gauge := reg.Gauge("grdf_fed_breaker_state",
					"Breaker position per source (0 closed, 1 half-open, 2 open).",
					"source", name)
				transitions := func(to BreakerState) *obs.Counter {
					return reg.Counter("grdf_fed_breaker_transitions_total",
						"Breaker transitions per source and target state.",
						"source", name, "to", to.String())
				}
				toClosed, toOpen, toHalf := transitions(Closed), transitions(Open), transitions(HalfOpen)
				bcfg.OnTransition = func(from, to BreakerState) {
					switch to {
					case Closed:
						gauge.Set(0)
						toClosed.Inc()
					case HalfOpen:
						gauge.Set(1)
						toHalf.Inc()
					case Open:
						gauge.Set(2)
						toOpen.Inc()
					}
					if userHook != nil {
						userHook(from, to)
					}
				}
			}
			ss.breaker = NewBreaker(bcfg)
		}
		f.sources = append(f.sources, ss)
	}
	return f, nil
}

func sourceCounter(reg *obs.Registry, name, state string) *obs.Counter {
	return reg.Counter("grdf_fed_source_requests_total",
		"Per-source request outcomes.", "source", name, "state", state)
}

// BreakerState reports the named source's breaker position; ok is false for
// unknown sources or when breakers are disabled.
func (f *Federator) BreakerState(source string) (BreakerState, bool) {
	for _, ss := range f.sources {
		if ss.src.Name() == source && ss.breaker != nil {
			return ss.breaker.State(), true
		}
	}
	return Closed, false
}

// Forward sends req to one source: the sources are taken in order from a
// rotating start, each through querySource, and the first answer is the
// answer. The error wraps ErrAllSourcesFailed, or is the parent ctx's error,
// when no source answered.
func (f *Federator) Forward(ctx context.Context, req Request) (*Answer, error) {
	ctx, span := obs.StartSpan(ctx, "fed.forward")
	defer span.End()
	n := len(f.sources)
	start := f.next.Add(1) - 1
	for i := range n {
		ss := f.sources[(start+uint64(i))%uint64(n)]
		if ans := f.querySource(ctx, ss, req); ans != nil {
			f.mRequests.Inc()
			span.SetAttr("source", ss.src.Name())
			return ans, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	err := ctx.Err()
	if err == nil {
		err = fmt.Errorf("%w (%d sources)", ErrAllSourcesFailed, n)
	}
	f.mFailed.Inc()
	span.Fail(err)
	return nil, err
}

// querySource runs the full per-source pipeline: breaker admission, retry
// loop with backoff and budget, attempt deadlines, outcome classification.
// It returns the source's answer, or nil when the source gave none. A query
// answer whose body is not JSON is no answer: it came from outside the
// process, and what the router sends on must be what a replica writes. Each source asked gets
// a fed.source span — including a breaker-rejected or dead one, so a skipped
// peer shows up in the trace as a failed span rather than a hole.
func (f *Federator) querySource(ctx context.Context, ss *sourceState, req Request) *Answer {
	name := ss.src.Name()
	ctx, span := obs.StartSpan(ctx, "fed.source")
	span.SetAttr("source", name)
	if ss.breaker != nil {
		span.SetAttr("breaker", ss.breaker.State().String())
	}
	start := time.Now()
	state, attempts := StateOK, 0
	defer func() {
		ss.mLatency.ObserveSince(start)
		span.SetAttr("state", state)
		span.Add("attempts", int64(attempts))
		span.End()
	}()

	report := func(bool) {}
	if ss.breaker != nil {
		r, err := ss.breaker.Allow()
		if err != nil {
			state = StateOpen
			ss.mOpen.Inc()
			span.Fail(err)
			return nil
		}
		report = r
	}
	ss.budget.Deposit()

	var lastErr error
	for attempts = 1; attempts <= f.cfg.Retry.MaxAttempts; attempts++ {
		actx, cancel := context.WithTimeout(ctx, f.cfg.SourceTimeout)
		ans, err := ss.src.Get(actx, req)
		cancel()
		if err == nil && req.Path == QueryPath && !json.Valid(ans.Body) {
			err = fmt.Errorf("federation: undecodable %s answer", name)
		}
		if err == nil {
			report(true)
			ss.mOK.Inc()
			return ans
		}
		lastErr = err
		if ctx.Err() != nil || !IsRetryable(err) || attempts == f.cfg.Retry.MaxAttempts {
			break
		}
		if !ss.budget.Withdraw() {
			lastErr = fmt.Errorf("federation: retry budget exhausted: %w", err)
			break
		}
		ss.mRetries.Inc()
		span.Add("retries", 1)
		// A shedding peer names its own comeback time: take the larger of
		// our backoff and its Retry-After hint (still capped — the hint is
		// advice from an overloaded machine, not a contract), so retries
		// land after its queue drains instead of joining the stampede.
		delay := f.cfg.Retry.backoff(attempts)
		if hint := RetryAfterHint(err); hint > delay {
			delay = min(hint, f.cfg.Retry.MaxDelay)
		}
		if err := f.cfg.Retry.sleep(ctx, delay); err != nil {
			lastErr = err
			break
		}
	}
	report(false)
	switch {
	case errors.Is(lastErr, context.DeadlineExceeded):
		state = StateTimeout
		ss.mTimeout.Inc()
	case IsShed(lastErr):
		// The peer is up and talking — it refused the work on purpose. Keep
		// the outcome distinct from faults so shed storms don't masquerade
		// as peer failures on dashboards.
		state = StateShed
		ss.mShed.Inc()
	default:
		state = StateError
		ss.mErr.Inc()
	}
	span.Fail(lastErr)
	return nil
}
