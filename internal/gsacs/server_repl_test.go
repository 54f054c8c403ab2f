package gsacs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/repl"
)

// TestReplicaReadinessGate: requests follow the follower status — served
// while ready, 503 "lagging" once the lag bound is exceeded, 503
// "recovering" before bootstrap — and /healthz always answers, carrying the
// replication block and the same status.
func TestReplicaReadinessGate(t *testing.T) {
	var st atomic.Pointer[repl.FollowerStatus]
	set := func(s repl.FollowerStatus) { st.Store(&s) }
	set(repl.FollowerStatus{Bootstrapped: true, Ready: true})
	srv, _, _ := v1TestServer(t, WithReplStatus(func() repl.FollowerStatus { return *st.Load() }))

	codeOf := func(path string) (int, string, map[string]any) {
		resp, body := doReq(t, srv, http.MethodGet, path)
		var m map[string]any
		json.Unmarshal([]byte(body), &m)
		code, _ := m["code"].(string)
		return resp.StatusCode, code, m
	}

	if status, _, _ := codeOf("/v1/roles"); status != http.StatusOK {
		t.Fatalf("ready replica refused reads: %d", status)
	}

	set(repl.FollowerStatus{Bootstrapped: true, Ready: false, LagSeconds: 9.5, MaxLagSeconds: 5})
	if status, code, _ := codeOf("/v1/roles"); status != http.StatusServiceUnavailable || code != "lagging" {
		t.Fatalf("lagging replica: status %d code %q, want 503 lagging", status, code)
	}
	status, _, health := codeOf("/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("lagging /healthz status %d, want 503", status)
	}
	if health["status"] != "lagging" {
		t.Fatalf("lagging /healthz status field %v", health["status"])
	}
	if _, ok := health["replication"]; !ok {
		t.Fatal("/healthz missing replication block")
	}

	set(repl.FollowerStatus{Bootstrapped: false, Ready: false})
	if status, code, _ := codeOf("/v1/roles"); status != http.StatusServiceUnavailable || code != "recovering" {
		t.Fatalf("bootstrapping replica: status %d code %q, want 503 recovering", status, code)
	}

	set(repl.FollowerStatus{Bootstrapped: true, Ready: true})
	if status, _, _ := codeOf("/v1/roles"); status != http.StatusOK {
		t.Fatalf("recovered replica still refused: %d", status)
	}
}

// TestWALRoutesRecoveringUntilLeaderExists: the replication endpoints are
// mounted with WithReplLeader but answer 503 until the leader pointer is
// populated (durable recovery still running).
func TestWALRoutesRecoveringUntilLeaderExists(t *testing.T) {
	var leader atomic.Pointer[repl.Leader]
	srv, _, _ := v1TestServer(t, WithReplLeader(leader.Load))
	for _, path := range []string{"/v1/wal/stream?from=1", "/v1/wal/snapshot"} {
		resp, body := doReq(t, srv, http.MethodGet, path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s before recovery: status %d body %s", path, resp.StatusCode, body)
		}
	}
}
