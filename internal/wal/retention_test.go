package wal

import (
	"errors"
	"testing"
)

// TestRecordSequencing: appends get contiguous sequence numbers, survive
// rotation, and ReadRecords returns exactly the requested window as
// decodable frames.
func TestRecordSequencing(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncOff})
	defer repo.Close()

	if got := repo.HeadSeq(); got != 0 {
		t.Fatalf("fresh HeadSeq = %d, want 0", got)
	}
	if got := repo.MinSeq(); got != 1 {
		t.Fatalf("fresh MinSeq = %d, want 1", got)
	}

	const n = 10
	for i := 0; i < n; i++ {
		st.Add(triple(i))
		if i == 4 {
			// Rotate mid-stream: sequences must stay contiguous across the
			// segment boundary.
			if err := repo.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
	}
	if got := repo.HeadSeq(); got != n {
		t.Fatalf("HeadSeq = %d, want %d", got, n)
	}

	frames, err := repo.ReadRecords(3, 1<<20)
	if err != nil {
		t.Fatalf("ReadRecords(3): %v", err)
	}
	if len(frames) != n-2 {
		t.Fatalf("ReadRecords(3) returned %d frames, want %d", len(frames), n-2)
	}
	// Frames decode with the standard decoder and land on the right triples.
	for i, frame := range frames {
		rec, next, err := DecodeRecord(frame, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if next != len(frame) {
			t.Fatalf("frame %d: decoded %d of %d bytes", i, next, len(frame))
		}
		want := triple(i + 2) // seq 3 is the third add = triple(2)
		sameRecord(t, rec, commit(uint64(i+2), add(want)))
	}

	// Past the head: empty, nil error (the long-poll signal).
	if frames, err := repo.ReadRecords(n+1, 1<<20); err != nil || len(frames) != 0 {
		t.Fatalf("ReadRecords past head = %d frames, %v; want 0, nil", len(frames), err)
	}

	// maxBytes pages the response but always ships at least one frame.
	frames, err = repo.ReadRecords(1, 1)
	if err != nil || len(frames) != 1 {
		t.Fatalf("ReadRecords(1, tiny) = %d frames, %v; want exactly 1", len(frames), err)
	}
}

// TestSequencingSurvivesReopen: the index is rebuilt from disk at recovery
// and the full window is streamable again (incarnation-local numbering).
func TestSequencingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 6; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		st.Add(triple(i))
	}
	head := repo.HeadSeq()
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	_, repo2 := openRepo(t, dir, Options{Fsync: FsyncAlways})
	defer repo2.Close()
	if got := repo2.HeadSeq(); got != head {
		t.Fatalf("HeadSeq after reopen = %d, want %d", got, head)
	}
	frames, err := repo2.ReadRecords(repo2.MinSeq(), 1<<20)
	if err != nil {
		t.Fatalf("ReadRecords after reopen: %v", err)
	}
	if want := int(head - repo2.MinSeq() + 1); len(frames) != want {
		t.Fatalf("streamable window after reopen = %d frames, want %d", len(frames), want)
	}
}

// TestWatchSignalsAppend: the long-poll channel closes on append.
func TestWatchSignalsAppend(t *testing.T) {
	st, repo := openRepo(t, t.TempDir(), Options{Fsync: FsyncOff})
	defer repo.Close()
	ch := repo.Watch()
	select {
	case <-ch:
		t.Fatal("watch fired before any append")
	default:
	}
	st.Add(triple(0))
	select {
	case <-ch:
	default:
		t.Fatal("watch did not fire after append")
	}
}

// TestGCRetentionFloor is the regression test for the replication
// retention guard: with a floor at an active follower's acked position, GC
// must not delete any segment between that position and the head, however
// many snapshots supersede it — and once the floor lifts, the same
// segments become collectable again.
func TestGCRetentionFloor(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncOff})
	defer repo.Close()

	for i := 0; i < 5; i++ {
		st.Add(triple(i))
	}
	// A follower acked seq 2; it next needs seq 3.
	const acked = uint64(2)
	repo.SetRetainSeq(acked + 1)

	// Two snapshot cycles would normally GC every pre-snapshot segment.
	for i := 5; i < 8; i++ {
		if err := repo.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		st.Add(triple(i))
	}

	// The window from the follower's next seq to the head must be intact.
	if min := repo.MinSeq(); min > acked+1 {
		t.Fatalf("MinSeq = %d: GC deleted records an active follower needs (acked %d)", min, acked)
	}
	frames, err := repo.ReadRecords(acked+1, 1<<20)
	if err != nil {
		t.Fatalf("ReadRecords(follower resume point): %v", err)
	}
	if want := int(repo.HeadSeq() - acked); len(frames) != want {
		t.Fatalf("resume window = %d frames, want %d", len(frames), want)
	}
	// Every pinned frame still decodes.
	for i, frame := range frames {
		if _, _, err := DecodeRecord(frame, 0); err != nil {
			t.Fatalf("pinned frame %d: %v", i, err)
		}
	}

	// Lift the floor: the next snapshot cycle may collect the old segments.
	repo.SetRetainSeq(0)
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.ReadRecords(1, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadRecords(1) after floor lifted = %v, want ErrCompacted", err)
	}
	// Recovery still works from the snapshots, floor or no floor.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	st2, repo2 := openRepo(t, dir, Options{Fsync: FsyncOff})
	defer repo2.Close()
	sameState(t, st, st2)
}

// TestFrameAtMatchesDecode: the cheap frame slicer agrees with the full
// decoder on framing and rejects a flipped bit.
func TestFrameAtMatchesDecode(t *testing.T) {
	recs := []Record{commit(1, add(triple(0))), commit(2, clearOp)}
	var buf []byte
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	off := 0
	for i := range recs {
		frame, next, err := frameAt(buf, off)
		if err != nil {
			t.Fatalf("frameAt record %d: %v", i, err)
		}
		rec, dnext, err := DecodeRecord(buf, off)
		if err != nil {
			t.Fatalf("DecodeRecord record %d: %v", i, err)
		}
		if next != dnext {
			t.Fatalf("record %d: frameAt next %d != decode next %d", i, next, dnext)
		}
		if rec.Kind != recs[i].Kind {
			t.Fatalf("record %d: kind %v, want %v", i, rec.Kind, recs[i].Kind)
		}
		if len(frame) != next-off {
			t.Fatalf("record %d: frame length %d, want %d", i, len(frame), next-off)
		}
		off = next
	}
	if _, _, err := frameAt(buf, off); err == nil {
		t.Fatal("frameAt past end succeeded")
	} else if !errors.Is(err, ErrTorn) {
		// Zero remaining bytes report a torn header; io.EOF is the decoder's
		// business, not the slicer's.
		_ = err
	}

	// A flipped payload bit fails the slice-time CRC.
	FlipBitBytes(buf, frameHeaderLen+2, 3)
	if _, _, err := frameAt(buf, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frameAt on corrupt frame = %v, want ErrCorrupt", err)
	}
}
