package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// remoteBodyLimit bounds how much of a peer's response is read: a
// misbehaving source must not be able to exhaust the federator's memory. A
// body over it is no answer, never a cut-off one.
const remoteBodyLimit = 32 << 20

// RemoteSource reads from a peer G-SACS server over its v1 HTTP API
// (GET {base}{path}?{raw query}). Transport failures and the statuses that
// say "ask elsewhere" (5xx, 429, 408) surface as retryable errors; any other
// status is the peer's answer.
type RemoteSource struct {
	name   string
	base   string // e.g. "http://peer:8080", no trailing slash
	client *http.Client
	limit  int64 // the largest body read; remoteBodyLimit
}

// NewRemoteSource builds a source for the peer at base. A nil client gets a
// dedicated one with sane connection pooling; per-attempt deadlines come
// from the Federator's context, not the client.
func NewRemoteSource(name, base string, client *http.Client) *RemoteSource {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return &RemoteSource{name: name, base: strings.TrimRight(base, "/"), client: client, limit: remoteBodyLimit}
}

// Name implements Source.
func (s *RemoteSource) Name() string { return s.name }

// Base returns the peer's base URL.
func (s *RemoteSource) Base() string { return s.base }

// FetchJSON GETs {base}{path} (path must start with "/") and decodes the
// JSON body into out, with the same trace propagation, body bound and
// status handling as Get; any status but 200 is a *StatusError carrying
// the peer's error envelope. The cluster rollup reads a peer's /v1/slo,
// /v1/queries and /healthz with it.
func (s *RemoteSource) FetchJSON(ctx context.Context, path string, out any) error {
	ans, err := s.get(ctx, path, "", func(status int) bool { return status == http.StatusOK })
	if err != nil {
		return err
	}
	if err := json.Unmarshal(ans.Body, out); err != nil {
		return fmt.Errorf("federation: undecodable %s response: %w", s.name, err)
	}
	return nil
}

// Get implements Source over HTTP.
func (s *RemoteSource) Get(ctx context.Context, r Request) (*Answer, error) {
	return s.get(ctx, r.Path+"?"+r.RawQuery, r.IfNoneMatch, func(status int) bool {
		return status < 500 && status != http.StatusTooManyRequests && status != http.StatusRequestTimeout
	})
}

// get GETs {base}{path}, with ifNoneMatch as its If-None-Match when set, and
// returns what the peer answered when answered(its status) holds, and a
// *StatusError otherwise.
func (s *RemoteSource) get(ctx context.Context, path, ifNoneMatch string, answered func(status int) bool) (*Answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("federation: build request for %s: %w", s.name, err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	// Propagate the trace across the process boundary: the peer adopts the
	// trace ID (joining its logs and metrics to ours) and parents its own
	// root span under our current fed.source span.
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	if sid := obs.CurrentSpanID(ctx); sid != "" {
		req.Header.Set(obs.ParentSpanHeader, sid)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err // transport error: retryable
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.limit+1))
	if err != nil {
		return nil, fmt.Errorf("federation: read %s response: %w", s.name, err)
	}
	if int64(len(body)) > s.limit {
		return nil, fmt.Errorf("federation: %s response over %d bytes", s.name, s.limit)
	}
	if answered(resp.StatusCode) {
		return &Answer{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"),
			ETag: resp.Header.Get("ETag"), Body: body}, nil
	}
	se := &StatusError{Status: resp.StatusCode}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &env) == nil {
		se.Code, se.Msg = env.Code, env.Error
	}
	// An overloaded or restarting peer names its comeback time; carry it so
	// the retry loop can honor it instead of stampeding back.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return nil, se
}
