package repl

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// digest is a hash of the store's sorted N-Triples: equal digests, equal
// triple sets.
func digest(st *store.Store) string {
	sum := sha256.Sum256([]byte(st.String()))
	return hex.EncodeToString(sum[:8])
}

// caughtUp waits until f has applied every record node's log holds, under
// node's incarnation, then asserts that the follower is at the leader's
// generation — in its store and in its status — with the leader's triples.
func caughtUp(t *testing.T, step string, f *Follower, fst *store.Store, node *leaderNode) {
	t.Helper()
	waitFor(t, 10*time.Second, step+": follower caught up", func() bool {
		st := f.Status()
		return st.Bootstrapped && st.Epoch == node.leader.Epoch() && st.AppliedSeq >= node.repo.HeadSeq()
	})
	lg := node.st.Generation()
	if fg, sg := fst.Generation(), f.Status().AppliedGeneration; fg != lg || sg != lg {
		t.Fatalf("%s: follower store at generation %d, status says %d, leader at %d", step, fg, sg, lg)
	}
	if fd, ld := digest(fst), digest(node.st); fd != ld {
		t.Fatalf("%s: generation %d on both, but the triple sets differ (%s vs %s)", step, lg, fd, ld)
	}
}

// TestOneGenerationAcrossReplicas: leader and follower report the same
// generation at the same log position, and hold the same triples there — on
// a seeded schedule of single-op and multi-op commits, snapshot compactions,
// a follower partitioned past the retention window (the 410 path), and a
// leader restart recovered from its data directory (the 409 path), whose
// generation must be the one it stopped at.
func TestOneGenerationAcrossReplicas(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leader")
	node := newLeaderNode(t, dir, LeaderOptions{FollowerTTL: 100 * time.Millisecond})
	var cur atomic.Pointer[Leader]
	cur.Store(node.leader)
	srv := startLeaderServer(t, func() *Leader { return cur.Load() })

	fst := store.New()
	opts := FollowerOptions{LeaderURL: srv.URL, MaxLag: 2 * time.Second}
	opts.Retry.BaseDelay = 10 * time.Millisecond
	f, err := NewFollower(fst, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (stop func()) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); f.Run(ctx) }()
		return func() { cancel(); <-done }
	}
	stop := run()
	t.Cleanup(func() { stop() })

	rng := rand.New(rand.NewSource(22))
	pick := func() rdf.Triple { return triple(rng.Intn(40)) }
	randomOp := func() store.Op {
		switch r := rng.Intn(20); {
		case r < 9:
			var ts []rdf.Triple
			for n := 1 + rng.Intn(3); n > 0; n-- {
				ts = append(ts, pick())
			}
			return store.Op{Kind: store.OpAdd, Triples: ts}
		case r < 14:
			return store.Op{Kind: store.OpRemove, Triples: []rdf.Triple{pick(), pick()}}
		case r < 19:
			return store.Op{Kind: store.OpReplace, Triples: []rdf.Triple{pick(), pick()}}
		default:
			return store.Op{Kind: store.OpClear}
		}
	}
	snapshots := uint64(1)
	for step := 0; step < 60; step++ {
		name := fmt.Sprintf("step %d", step)
		switch {
		case step == 20:
			// 410: partition the follower until the leader forgets its claim,
			// then compact past its position.
			stop()
			waitFor(t, 5*time.Second, "retention claim expiry", func() bool { return node.repo.RetainSeq() == 0 })
			for i := 0; i < 2; i++ {
				node.st.Add(triple(100 + i))
				if err := node.repo.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if node.repo.MinSeq() <= f.Status().AppliedSeq+1 {
				t.Fatalf("leader kept the follower's next record (min seq %d); the 410 path is not exercised", node.repo.MinSeq())
			}
			stop = run()
			snapshots++
			name += " (re-bootstrap after compaction)"
		case step == 40:
			// 409: restart the leader on its data directory.
			gen, d := node.st.Generation(), digest(node.st)
			node.leader.Close()
			if err := node.repo.Close(); err != nil {
				t.Fatal(err)
			}
			node = newLeaderNode(t, dir, LeaderOptions{FollowerTTL: 100 * time.Millisecond})
			if node.st.Generation() != gen || digest(node.st) != d {
				t.Fatalf("recovered leader at generation %d (%s), stopped at %d (%s)",
					node.st.Generation(), digest(node.st), gen, d)
			}
			cur.Store(node.leader)
			snapshots++
			name += " (re-bootstrap after leader restart)"
		case rng.Intn(8) == 0:
			if err := node.repo.Snapshot(); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(3) == 0:
			if _, err := node.st.Apply(randomOp()); err != nil {
				t.Fatal(err)
			}
		default:
			ops := make([]store.Op, 1+rng.Intn(3))
			for i := range ops {
				ops[i] = randomOp()
			}
			if _, err := node.st.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		caughtUp(t, name, f, fst, node)
	}
	if got := f.Status().SnapshotTransfers; got != snapshots {
		t.Errorf("snapshot transfers = %d, want %d: one bootstrap and the two forced ones", got, snapshots)
	}
	if node.st.Generation() < 30 {
		t.Errorf("the schedule reached generation %d only; too few commits to mean much", node.st.Generation())
	}
}
