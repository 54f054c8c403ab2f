package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBackoffBounds checks the exponential envelope: every delay for retry
// k lies in [base·m^(k−1)·(1−jitter), base·m^(k−1)], capped at MaxDelay.
func TestBackoffBounds(t *testing.T) {
	cfg := RetryConfig{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
	cfg.defaults()
	for _, roll := range []float64{0, 0.25, 0.5, 0.9999} {
		cfg.rnd = func() float64 { return roll }
		for retry := 1; retry <= 6; retry++ {
			full := float64(cfg.BaseDelay)
			for i := 1; i < retry; i++ {
				full *= cfg.Multiplier
			}
			if full > float64(cfg.MaxDelay) {
				full = float64(cfg.MaxDelay)
			}
			got := float64(cfg.backoff(retry))
			lo := full * (1 - cfg.Jitter)
			if got < lo-1 || got > full+1 {
				t.Errorf("backoff(retry=%d, roll=%v) = %v, want within [%v, %v]",
					retry, roll, time.Duration(got), time.Duration(lo), time.Duration(full))
			}
		}
	}
	// Growth must actually be exponential up to the cap (with jitter off).
	cfg.rnd = func() float64 { return 0 }
	if d2, d1 := cfg.backoff(2), cfg.backoff(1); d2 != 2*d1 {
		t.Errorf("backoff(2) = %v, want 2×backoff(1) = %v", d2, 2*d1)
	}
	if got := cfg.backoff(6); got != cfg.MaxDelay {
		t.Errorf("backoff(6) = %v, want capped at %v", got, cfg.MaxDelay)
	}
}

// TestRetryBudget verifies the token bucket: a burst of retries drains it,
// deposits refill it at the configured ratio.
func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(RetryConfig{BudgetBurst: 2, BudgetRatio: 0.5})
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("burst capacity of 2 not available")
	}
	if b.Withdraw() {
		t.Fatal("withdraw succeeded on an empty budget")
	}
	b.Deposit() // +0.5 — still under one token
	if b.Withdraw() {
		t.Fatal("withdraw succeeded on a fractional budget")
	}
	b.Deposit() // 1.0
	if !b.Withdraw() {
		t.Fatal("refilled budget refused a withdrawal")
	}
}

// TestIsRetryable pins the error classification.
func TestIsRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrOpen, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{&StatusError{Status: 500}, true},
		{&StatusError{Status: 503}, true},
		{&StatusError{Status: 429}, true},
		{&StatusError{Status: 400}, false},
		{&StatusError{Status: 403}, false},
		{fmt.Errorf("wrapped: %w", &StatusError{Status: 502}), true},
		{errors.New("transport reset"), true},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// scriptedSource fails a fixed number of times before answering, counting
// calls. Its answer is answer, or a 200 with an empty result when nil.
type scriptedSource struct {
	mu        sync.Mutex
	failures  int
	calls     int
	failError error
	answer    *Answer
}

func (s *scriptedSource) Name() string { return "scripted" }

func (s *scriptedSource) Get(ctx context.Context, req Request) (*Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.failures {
		return nil, s.failError
	}
	if s.answer != nil {
		return s.answer, nil
	}
	return &Answer{Status: 200, ContentType: "application/json", Body: []byte(`{"head":{"vars":["x"]},"results":[]}`)}, nil
}

// TestFederatorRetriesThenSucceeds verifies the retry loop: two transient
// failures then success yields the answer after 3 attempts and two backoff
// sleeps whose durations follow the (jitter-free) schedule.
func TestFederatorRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	cfg := Config{
		SourceTimeout: time.Second,
		Retry: RetryConfig{
			MaxAttempts: 4,
			BaseDelay:   10 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.000001, // effectively off, but exercise the jitter path
			rnd:         func() float64 { return 1 },
			sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		},
	}
	src := &scriptedSource{failures: 2, failError: &StatusError{Status: 503}}
	fed, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"})
	if err != nil {
		t.Fatalf("Query error: %v", err)
	}
	if ans.Status != 200 || src.calls != 3 {
		t.Fatalf("answer %+v after %d calls, want 200 after 3", ans, src.calls)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 backoffs", slept)
	}
	// Schedule: ~10ms then ~20ms (jitter ≈ 0).
	if slept[0] < 9*time.Millisecond || slept[0] > 10*time.Millisecond {
		t.Errorf("first backoff = %v, want ≈10ms", slept[0])
	}
	if slept[1] < 19*time.Millisecond || slept[1] > 20*time.Millisecond {
		t.Errorf("second backoff = %v, want ≈20ms", slept[1])
	}
}

// TestFederatorTerminalErrorNotRetried verifies a 4xx is the answer: it
// stops the loop after one attempt and is passed on as it is.
func TestFederatorTerminalErrorNotRetried(t *testing.T) {
	var slept int
	cfg := Config{
		Retry: RetryConfig{
			MaxAttempts: 5,
			sleep: func(ctx context.Context, d time.Duration) error {
				slept++
				return nil
			},
		},
	}
	refusal := &Answer{Status: 400, ContentType: "application/json", Body: []byte(`{"error":"parse","code":"query_error"}`)}
	src := &scriptedSource{answer: refusal}
	fed, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"})
	if err != nil || ans != refusal {
		t.Fatalf("Query = %+v, %v; want the 400 answer", ans, err)
	}
	if src.calls != 1 || slept != 0 {
		t.Errorf("terminal error retried: calls=%d sleeps=%d, want 1/0", src.calls, slept)
	}
}

// TestFederatorRetryBudgetCaps verifies that once the budget drains, further
// requests fail without retrying.
func TestFederatorRetryBudgetCaps(t *testing.T) {
	var slept int
	cfg := Config{
		DisableBreaker: true, // isolate the budget from breaker fail-fast
		Retry: RetryConfig{
			MaxAttempts: 2,
			BudgetBurst: 3,
			BudgetRatio: 0.0001,
			sleep: func(ctx context.Context, d time.Duration) error {
				slept++
				return nil
			},
		},
	}
	src := &scriptedSource{failures: 1 << 30, failError: &StatusError{Status: 503}}
	fed, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"})
	}
	// 10 requests × 1 retry each would be 10 retries; the budget allows ~3.
	if slept != 3 {
		t.Errorf("retries issued = %d, want 3 (budget-capped)", slept)
	}
	// 10 first attempts + 3 budgeted retries.
	if src.calls != 13 {
		t.Errorf("source calls = %d, want 13", src.calls)
	}
}
