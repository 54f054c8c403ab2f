package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// RetryConfig tunes the per-source retry loop. Zero values select the
// defaults noted on each field.
type RetryConfig struct {
	// MaxAttempts is the total try count including the first (default 3;
	// 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Multiplier is the exponential factor (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized: the actual
	// delay is uniform in [d·(1−Jitter), d] (default 0.5).
	Jitter float64
	// BudgetRatio is the token-bucket refill per attempted request: with
	// 0.2, sustained retries are capped at 20% of request volume so a
	// down source cannot triple the load on it (default 0.2).
	BudgetRatio float64
	// BudgetBurst is the bucket capacity — retries allowed in a burst
	// before the ratio gate kicks in (default 10).
	BudgetBurst float64

	// rnd and sleep are injectable for deterministic tests.
	rnd   func() float64
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *RetryConfig) defaults() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 2
	}
	if c.Jitter < 0 || c.Jitter > 1 {
		c.Jitter = 0.5
	}
	if c.BudgetRatio <= 0 {
		c.BudgetRatio = 0.2
	}
	if c.BudgetBurst <= 0 {
		c.BudgetBurst = 10
	}
	if c.rnd == nil {
		c.rnd = rand.Float64
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
}

// backoff computes the delay before retry number retry (1-based), with
// exponential growth, cap, and jitter.
func (c *RetryConfig) backoff(retry int) time.Duration {
	d := float64(c.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= c.Multiplier
		if d >= float64(c.MaxDelay) {
			break
		}
	}
	if d > float64(c.MaxDelay) {
		d = float64(c.MaxDelay)
	}
	if c.Jitter > 0 {
		d -= c.rnd() * c.Jitter * d
	}
	return time.Duration(d)
}

// Backoff computes the delay before retry number retry (1-based) using the
// config's exponential/jitter policy with defaults filled in, without
// mutating the receiver. Exported for callers outside the federator loop —
// the replication follower paces its reconnects with the same policy a
// routed query retry uses.
func (c RetryConfig) Backoff(retry int) time.Duration {
	c.defaults()
	return c.backoff(retry)
}

// sleepCtx waits d or until ctx is done, returning ctx.Err() in the latter
// case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryBudget is a token bucket shared by all requests to one target:
// each request deposits BudgetRatio tokens, each retry withdraws one, so
// sustained retries are capped at a fraction of real traffic. The federator
// keeps one per source; the replication follower keeps one per leader.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewRetryBudget builds a bucket from cfg's BudgetBurst/BudgetRatio
// (defaults applied).
func NewRetryBudget(cfg RetryConfig) *RetryBudget {
	cfg.defaults()
	return &RetryBudget{tokens: cfg.BudgetBurst, max: cfg.BudgetBurst, ratio: cfg.BudgetRatio}
}

// Deposit credits one request's worth of retry allowance.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Withdraw takes one retry token, reporting whether the budget allows it.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// StatusError is a non-2xx answer from a remote source, carrying the v1
// error envelope when one was decodable.
type StatusError struct {
	Status int
	Code   string
	Msg    string
	// RetryAfter is the peer's Retry-After hint (zero when absent). A peer
	// that sheds with 429 names the moment its queue will have drained;
	// retrying sooner is a stampede, so the backoff loop takes the larger of
	// its own delay and this hint.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("federation: remote status %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("federation: remote status %d", e.Status)
}

// RetryAfterHint extracts the peer's Retry-After hint from err, or zero when
// err carries none.
func RetryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	return 0
}

// IsShed reports whether err is a peer's load-shed answer (429): the peer is
// healthy but refusing work, which is an overload outcome, not a fault.
func IsShed(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == http.StatusTooManyRequests
}

// IsRetryable classifies an error as transient (worth another attempt
// against the same source) or terminal. Server-side failures, timeouts and
// transport/decoding faults are transient; client-side errors (a malformed
// query stays malformed) and breaker rejections are terminal.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOpen) || errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == 429 || se.Status == 408
	}
	// Attempt deadline, transport error, garbage payload: transient.
	return true
}
