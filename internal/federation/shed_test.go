package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		err  error
		want time.Duration
	}{
		{nil, 0},
		{errors.New("plain"), 0},
		{&StatusError{Status: 429}, 0},
		{&StatusError{Status: 429, RetryAfter: 3 * time.Second}, 3 * time.Second},
		{fmt.Errorf("wrapped: %w", &StatusError{Status: 503, RetryAfter: time.Second}), time.Second},
	}
	for _, c := range cases {
		if got := RetryAfterHint(c.err); got != c.want {
			t.Errorf("RetryAfterHint(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestIsShed(t *testing.T) {
	if !IsShed(&StatusError{Status: 429}) {
		t.Error("429 not classified as shed")
	}
	if IsShed(&StatusError{Status: 503}) || IsShed(errors.New("x")) || IsShed(nil) {
		t.Error("non-429 classified as shed")
	}
}

// TestRetryAfterStretchesBackoff: a shedding peer's Retry-After hint must
// replace a shorter computed backoff, and MaxDelay must still cap the hint.
func TestRetryAfterStretchesBackoff(t *testing.T) {
	var slept []time.Duration
	cfg := Config{
		Retry: RetryConfig{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    700 * time.Millisecond,
			Jitter:      0.000001,
			rnd:         func() float64 { return 1 },
			sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		},
	}
	src := &scriptedSource{failures: 2,
		failError: &StatusError{Status: 429, RetryAfter: 500 * time.Millisecond}}
	fed, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"}); err != nil {
		t.Fatalf("Query error: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2", slept)
	}
	for i, d := range slept {
		if d != 500*time.Millisecond {
			t.Errorf("sleep %d = %v, want the 500ms Retry-After hint", i, d)
		}
	}

	// A hint beyond MaxDelay is capped: advice, not a contract.
	slept = nil
	src2 := &scriptedSource{failures: 1,
		failError: &StatusError{Status: 429, RetryAfter: time.Hour}}
	fed, err = New(cfg, src2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"}); err != nil {
		t.Fatalf("Query error: %v", err)
	}
	if len(slept) != 1 || slept[0] != 700*time.Millisecond {
		t.Errorf("sleeps = %v, want the hint capped at MaxDelay (700ms)", slept)
	}
}

// TestFinal429ClassifiedShed: a peer that sheds through every attempt lands
// in the dedicated shed state, not error, and the per-source metric moves.
func TestFinal429ClassifiedShed(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		DisableBreaker: true,
		Metrics:        reg,
		Retry: RetryConfig{
			MaxAttempts: 2,
			sleep:       func(ctx context.Context, d time.Duration) error { return nil },
		},
	}
	src := &scriptedSource{failures: 1 << 30, failError: &StatusError{Status: 429}}
	fed, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Forward(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"}); !errors.Is(err, ErrAllSourcesFailed) {
		t.Fatalf("Err = %v, want ErrAllSourcesFailed", err)
	}
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "grdf_fed_source_requests_total" && m.Labels["state"] == StateShed && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("shed outcome not counted in grdf_fed_source_requests_total{state=shed}")
	}
}

// TestRemoteSourceParsesRetryAfter: the wire → StatusError mapping carries
// the peer's Retry-After so the loop above has something to honor.
func TestRemoteSourceParsesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "shed", "code": "overloaded"})
	}))
	defer srv.Close()
	src := NewRemoteSource("peer", srv.URL, nil)
	_, err := src.Get(context.Background(), Request{Path: QueryPath, RawQuery: "q=x"})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Status != http.StatusTooManyRequests || se.Code != "overloaded" {
		t.Errorf("StatusError = %+v, want 429/overloaded", se)
	}
	if se.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", se.RetryAfter)
	}
	if !IsShed(err) {
		t.Error("peer 429 not recognized as shed")
	}
}
