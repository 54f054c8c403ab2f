package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Group-commit durability coverage: an atomic batch is one KindCommit frame
// (one append, one fsync), a failed group fsync fails every op in the group
// and leaves the store untouched, and torn-tail truncation can only ever
// drop whole batches — never half of one.

func TestBatchRecordRoundTrip(t *testing.T) {
	want := commit(21, add(triple(1), triple(2)), remove(triple(3)), replace(triple(2), triple(4)), clearOp)
	frame, err := encodeRecord(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, next, err := DecodeRecord(frame, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if next != len(frame) {
		t.Errorf("next offset = %d, want %d", next, len(frame))
	}
	sameRecord(t, got, want)

	// A flipped bit anywhere in the batch payload is caught by the frame CRC.
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0x04
	if _, _, err := DecodeRecord(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip in batch frame: got %v, want ErrCorrupt", err)
	}

	if _, err := encodeRecord(Record{Kind: KindCommit}); err == nil {
		t.Error("empty commit record encoded, want error")
	}
}

// TestBatchPaysOneAppendOneFsync: however many ops an atomic batch carries,
// the log sees exactly one write and one fsync before the ack.
func TestBatchPaysOneAppendOneFsync(t *testing.T) {
	ff := NewFaultFS(nil, FaultConfig{})
	st, repo := openRepo(t, t.TempDir(), Options{FS: ff, Fsync: FsyncAlways})
	defer repo.Close()
	w0, s0 := ff.Counts()

	ops := make([]store.Op, 0, 10)
	for i := 0; i < 10; i++ {
		ops = append(ops, store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(i)}})
	}
	if _, err := st.ApplyBatch(ops); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	w1, s1 := ff.Counts()
	if w1-w0 != 1 || s1-s0 != 1 {
		t.Errorf("10-op batch cost %d writes and %d fsyncs, want 1 and 1", w1-w0, s1-s0)
	}
}

// TestConcurrentWritersShareFsyncs: under concurrency, the fsync count must
// stay below the op count — groups formed — while every acked op survives a
// reopen.
func TestConcurrentWritersShareFsyncs(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil, FaultConfig{})
	st, repo := openRepo(t, dir, Options{FS: ff, Fsync: FsyncAlways})
	_, s0 := ff.Counts()

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := st.Apply(store.Op{Kind: store.OpAdd,
					Triples: []rdf.Triple{triple(w*perWriter + i)}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := repo.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	const total = writers * perWriter
	_, syncs := ff.Counts()
	if syncs-s0 >= total {
		t.Errorf("%d fsyncs for %d acked ops: group commit never fused", syncs-s0, total)
	}
	gc := st.GroupCommitStats()
	if gc.Ops != total {
		t.Errorf("GroupCommitStats.Ops = %d, want %d", gc.Ops, total)
	}
	t.Logf("%d ops in %d groups, %d fsyncs", gc.Ops, gc.Groups, syncs)

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
}

// TestFsyncFailureMidGroupFailsWholeBatch: when the group fsync fails, every
// op of the atomic batch reports the persistence error, the in-memory store
// publishes nothing, and the log is fail-stop until reopened.
func TestFsyncFailureMidGroupFailsWholeBatch(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil, FaultConfig{})
	st, repo := openRepo(t, dir, Options{FS: ff, Fsync: FsyncAlways})

	if _, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(0)}}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	gen := st.Generation()

	// Position a fault on the next fsync, then commit an atomic batch.
	_, syncs := ff.Counts()
	ff.cfg.FailSyncAt = syncs + 1
	_, err := st.ApplyBatch([]store.Op{
		{Kind: store.OpAdd, Triples: []rdf.Triple{triple(1)}},
		{Kind: store.OpRemove, Triples: []rdf.Triple{triple(0)}},
	})
	if !errors.Is(err, store.ErrCommitHook) || !errors.Is(err, ErrInjected) {
		t.Fatalf("batch err = %v, want ErrCommitHook wrapping the injected fsync fault", err)
	}
	if st.Generation() != gen || st.Has(triple(1)) || !st.Has(triple(0)) {
		t.Error("failed group leaked into the published version")
	}

	// Fail-stop: later mutations are refused without touching the disk.
	if _, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(2)}}); err == nil {
		t.Fatal("append after failed fsync was accepted")
	}
	repo.Close()

	// Recovery on a healthy filesystem must come back clean. The unacked
	// batch frame DID reach the file (only the fsync was refused), so the
	// durability contract allows either outcome — but never a torn one: the
	// recovered state is exactly the pre-batch state or exactly the
	// post-batch state, because the batch is a single all-or-nothing frame.
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	pre := st2.Has(triple(0)) && !st2.Has(triple(1))
	post := !st2.Has(triple(0)) && st2.Has(triple(1))
	if !pre && !post {
		t.Errorf("recovered a half-applied batch: has(0)=%v has(1)=%v",
			st2.Has(triple(0)), st2.Has(triple(1)))
	}
	if err := st2.Validate(); err != nil {
		t.Errorf("recovered state inconsistent: %v", err)
	}
}

// TestTornBatchTailDropsWholeGroup: shearing the final KindCommit frame mid-
// record must truncate the whole batch away on recovery — the store comes
// back as if the batch never happened, not half-applied.
func TestTornBatchTailDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	if _, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch([]store.Op{
		{Kind: store.OpAdd, Triples: []rdf.Triple{triple(1), triple(2)}},
		{Kind: store.OpReplace, Triples: []rdf.Triple{triple(0), triple(3)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Shear 3 bytes off the segment tail: the batch's frame is torn.
	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := TruncateFile(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	if !repo2.Info().TornTailTruncated {
		t.Error("recovery did not report the torn tail")
	}
	if !st2.Has(triple(0)) {
		t.Error("commit before the torn batch lost")
	}
	for i, tr := range []rdf.Triple{triple(1), triple(2), triple(3)} {
		if st2.Has(tr) {
			t.Errorf("sub-op triple %d of the torn batch survived: %s", i, tr)
		}
	}
	if st2.Has(triple(0)) && st2.Len() != 1 {
		t.Errorf("recovered %d triples, want exactly the pre-batch state", st2.Len())
	}
}

// TestBatchReplayIsAtomic: a cleanly-persisted batch replays as one commit —
// one generation bump — on recovery.
func TestBatchReplayIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	var ops []store.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(i)}})
	}
	if _, err := st.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
	if st2.Generation() != 1 {
		t.Errorf("replayed batch moved the store %d generations, want 1", st2.Generation())
	}
}
