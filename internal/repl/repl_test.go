package repl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

func triple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://example.org/s%d", i)),
		rdf.IRI("http://example.org/p"),
		rdf.Literal{Value: fmt.Sprintf("v%d", i), Datatype: rdf.XSDString},
	)
}

// leaderNode bundles a leader's store, repository and Leader for tests.
type leaderNode struct {
	st     *store.Store
	repo   *wal.Repository
	leader *Leader
}

func newLeaderNode(t *testing.T, dir string, opts LeaderOptions) *leaderNode {
	t.Helper()
	st := store.New()
	repo, err := wal.Open(st, wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if opts.PollTimeout == 0 {
		opts.PollTimeout = 250 * time.Millisecond
	}
	ld := NewLeader(st, repo, opts)
	t.Cleanup(func() { ld.Close(); repo.Close() })
	return &leaderNode{st: st, repo: repo, leader: ld}
}

// startLeaderServer serves whatever Leader get() currently returns, so
// tests can swap incarnations under a stable URL (a leader restart).
func startLeaderServer(t *testing.T, get func() *Leader) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/wal/stream", func(w http.ResponseWriter, r *http.Request) { get().ServeStream(w, r) })
	mux.HandleFunc("/v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) { get().ServeSnapshot(w, r) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func startFollower(t *testing.T, opts FollowerOptions) (*Follower, *store.Store, context.CancelFunc) {
	t.Helper()
	st := store.New()
	if opts.Retry.BaseDelay == 0 {
		opts.Retry.BaseDelay = 10 * time.Millisecond
	}
	f, err := NewFollower(st, opts)
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return f, st, cancel
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func converged(leader, follower *store.Store) bool {
	if leader.Len() != follower.Len() {
		return false
	}
	fv := follower.View()
	for _, tr := range leader.Triples() {
		if !fv.Has(tr) {
			return false
		}
	}
	return true
}

// TestReplicateAndCatchUp: bootstrap from snapshot, stream the live tail,
// stay caught up through single ops and atomic batches.
func TestReplicateAndCatchUp(t *testing.T) {
	node := newLeaderNode(t, t.TempDir(), LeaderOptions{})
	for i := 0; i < 20; i++ {
		node.st.Add(triple(i))
	}
	srv := startLeaderServer(t, func() *Leader { return node.leader })

	f, fst, _ := startFollower(t, FollowerOptions{LeaderURL: srv.URL, MaxLag: 2 * time.Second})
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return converged(node.st, fst) })

	if !f.Ready() {
		t.Fatalf("follower not ready after catch-up: %+v", f.Status())
	}
	if st := f.Status(); st.SnapshotTransfers != 1 {
		t.Fatalf("snapshot transfers = %d, want 1", st.SnapshotTransfers)
	}

	// Live tail: single ops and an atomic batch, including a remove.
	for i := 20; i < 25; i++ {
		node.st.Add(triple(i))
	}
	node.st.Remove(triple(0))
	if _, err := node.st.ApplyBatch([]store.Op{
		{Kind: store.OpAdd, Triples: []rdf.Triple{triple(100)}},
		{Kind: store.OpAdd, Triples: []rdf.Triple{triple(101)}},
	}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	waitFor(t, 5*time.Second, "tail convergence", func() bool { return converged(node.st, fst) })
	caughtUp(t, "tail", f, fst, node)
	if st := f.Status(); st.AppliedSeq != node.repo.HeadSeq() {
		t.Fatalf("applied seq %d, leader head %d", st.AppliedSeq, node.repo.HeadSeq())
	}
}

// TestEpochFencingRebootstrap: a leader restart mints a new epoch; the
// follower must detect the fence, discard, re-bootstrap from snapshot, and
// converge on the new incarnation — including records the old incarnation
// never shipped.
func TestEpochFencingRebootstrap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leader")
	node1 := newLeaderNode(t, dir, LeaderOptions{})
	for i := 0; i < 10; i++ {
		node1.st.Add(triple(i))
	}
	var cur atomic.Pointer[Leader]
	cur.Store(node1.leader)
	srv := startLeaderServer(t, func() *Leader { return cur.Load() })

	f, fst, _ := startFollower(t, FollowerOptions{LeaderURL: srv.URL, MaxLag: 2 * time.Second})
	waitFor(t, 5*time.Second, "convergence on first incarnation", func() bool { return converged(node1.st, fst) })
	epoch1 := f.Status().Epoch

	// Restart: close the old incarnation, recover a new one from the same
	// directory, and swap it in under the same URL.
	node1.leader.Close()
	if err := node1.repo.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := store.New()
	repo2, err := wal.Open(st2, wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer repo2.Close()
	leader2 := NewLeader(st2, repo2, LeaderOptions{PollTimeout: 250 * time.Millisecond})
	defer leader2.Close()
	st2.Add(triple(999)) // a record only the new incarnation has
	cur.Store(leader2)

	waitFor(t, 10*time.Second, "convergence on new incarnation", func() bool { return converged(st2, fst) })
	st := f.Status()
	if st.Epoch == epoch1 {
		t.Fatalf("follower kept epoch %s across leader restart", epoch1)
	}
	if st.SnapshotTransfers < 2 {
		t.Fatalf("snapshot transfers = %d, want >= 2 (re-bootstrap)", st.SnapshotTransfers)
	}
}

// TestCompactionRebootstrap: a follower partitioned past the leader's
// retention window gets 410 and must recover via snapshot, not stream.
func TestCompactionRebootstrap(t *testing.T) {
	// Tiny TTL so the parked follower's retention claim expires quickly.
	node := newLeaderNode(t, t.TempDir(), LeaderOptions{FollowerTTL: 100 * time.Millisecond})
	for i := 0; i < 5; i++ {
		node.st.Add(triple(i))
	}
	srv := startLeaderServer(t, func() *Leader { return node.leader })

	f, fst, cancel := startFollower(t, FollowerOptions{LeaderURL: srv.URL, MaxLag: 2 * time.Second})
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return converged(node.st, fst) })
	cancel() // partition the follower

	// Let the follower's retention claim expire, then compact past it.
	waitFor(t, 5*time.Second, "retention claim expiry", func() bool { return node.repo.RetainSeq() == 0 })
	for i := 5; i < 15; i++ {
		node.st.Add(triple(i))
		if err := node.repo.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if node.repo.MinSeq() <= 1 {
		t.Fatalf("leader never compacted (min seq %d); test is vacuous", node.repo.MinSeq())
	}

	// Rejoin: the follower's next stream request predates the window.
	ctx, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel2(); <-done }()
	waitFor(t, 10*time.Second, "post-compaction convergence", func() bool { return converged(node.st, fst) })
	if st := f.Status(); st.SnapshotTransfers < 2 {
		t.Fatalf("snapshot transfers = %d, want >= 2 (compaction fallback)", st.SnapshotTransfers)
	}
}

// TestReadinessLagGate: readiness follows the lag bound — true while
// caught up, false once the leader is unreachable longer than MaxLag,
// true again after recovery.
func TestReadinessLagGate(t *testing.T) {
	node := newLeaderNode(t, t.TempDir(), LeaderOptions{PollTimeout: 50 * time.Millisecond})
	node.st.Add(triple(1))

	var broken atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/wal/stream", func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		node.leader.ServeStream(w, r)
	})
	mux.HandleFunc("/v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		node.leader.ServeSnapshot(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const maxLag = 400 * time.Millisecond
	f, fst, _ := startFollower(t, FollowerOptions{LeaderURL: srv.URL, MaxLag: maxLag})
	waitFor(t, 5*time.Second, "convergence", func() bool { return converged(node.st, fst) })
	waitFor(t, 5*time.Second, "ready", f.Ready)

	broken.Store(true)
	waitFor(t, 5*time.Second, "readiness to drop after lag exceeds bound", func() bool { return !f.Ready() })
	if st := f.Status(); st.LagSeconds <= maxLag.Seconds() {
		t.Fatalf("unready but lag %.3fs <= bound %.3fs", st.LagSeconds, maxLag.Seconds())
	}

	broken.Store(false)
	waitFor(t, 10*time.Second, "readiness to recover", f.Ready)
}

// TestConcurrentReadsDuringBootstrap: a reader polling the follower store
// through a bootstrap must never observe the intermediate empty state —
// the snapshot loads as one atomic publish.
func TestConcurrentReadsDuringBootstrap(t *testing.T) {
	node := newLeaderNode(t, t.TempDir(), LeaderOptions{})
	for i := 0; i < 50; i++ {
		node.st.Add(triple(i))
	}
	srv := startLeaderServer(t, func() *Leader { return node.leader })

	fst := store.New()
	// Pre-load stale state so the bootstrap has something to replace.
	fst.Add(triple(1000))
	f, err := NewFollower(fst, FollowerOptions{LeaderURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	var sawEmpty atomic.Bool
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if fst.Len() == 0 {
				sawEmpty.Store(true)
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	waitFor(t, 5*time.Second, "bootstrap", func() bool { return converged(node.st, fst) })
	cancel()
	<-done
	close(stop)
	wg.Wait()
	if sawEmpty.Load() {
		t.Fatal("a reader observed an empty store mid-bootstrap; the swap is not atomic")
	}
}
