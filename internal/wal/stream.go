package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
)

// Replication support: the repository numbers every appended record with a
// process-lifetime sequence number so a follower can stream the log tail
// over HTTP (`/v1/wal/stream?from=seq`) and resume exactly where it left
// off. Sequence numbers are an incarnation-local coordinate system — they
// are rebuilt at recovery from the live segment files and are NOT stable
// across leader restarts. That is deliberate: a follower detects a leader
// restart through epoch fencing (see internal/repl) and re-bootstraps from
// a snapshot rather than trusting seq continuity across incarnations.

// ErrCompacted reports that the requested records have been garbage-
// collected into a snapshot: the caller must bootstrap from a snapshot
// instead of streaming.
var ErrCompacted = errors.New("wal: requested records compacted into a snapshot")

// indexSegments walks every live segment ascending and assigns each its
// first record sequence number, establishing the streamable window. Called
// once at the end of recovery, before the repository serves appends.
//
// A segment that does not frame-walk cleanly (historical damage covered by
// a snapshot) is excluded along with everything before it: sequence
// numbers must be contiguous within the window, and an unreadable segment
// breaks the chain. Such segments are still GC-eligible under the normal
// snapshot rule.
func (r *Repository) indexSegments() error {
	dirSt, err := listDir(r.fsys, r.dir)
	if err != nil {
		return fmt.Errorf("wal: index segments: %w", err)
	}
	starts := make(map[uint64]uint64, len(dirSt.segments))
	cursor := uint64(1)
	for _, seq := range dirSt.segments {
		n, err := r.countSegmentRecords(seq)
		if err != nil {
			// Restart the streamable window after the damaged segment.
			r.logger.Warn("wal: segment not streamable; excluded from replication window",
				"segment", seq, "err", err)
			starts = make(map[uint64]uint64)
			continue
		}
		starts[seq] = cursor
		cursor += uint64(n)
	}
	r.mu.Lock()
	r.segStarts = starts
	r.headSeq = cursor - 1
	r.minSeq = r.minSeqLocked()
	r.mu.Unlock()
	return nil
}

// countSegmentRecords frame-walks one segment, verifying CRCs but not
// parsing payloads, and returns the record count.
func (r *Repository) countSegmentRecords(seq uint64) (int, error) {
	buf, err := readAll(r.fsys, filepath.Join(r.dir, segmentName(seq)))
	if err != nil {
		return 0, err
	}
	n := 0
	_, err = walkFrames(buf, func([]byte) { n++ })
	return n, err
}

// minSeqLocked computes the oldest streamable sequence number. Caller
// holds r.mu. With an empty window nothing before headSeq+1 is streamable.
func (r *Repository) minSeqLocked() uint64 {
	min := uint64(0)
	for _, start := range r.segStarts {
		if min == 0 || start < min {
			min = start
		}
	}
	if min == 0 {
		return r.headSeq + 1
	}
	return min
}

// HeadSeq returns the sequence number of the most recently appended record
// (0 before the first append of this incarnation).
func (r *Repository) HeadSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.headSeq
}

// MinSeq returns the oldest record sequence still streamable from disk.
// A stream request below it must fall back to a snapshot (ErrCompacted).
func (r *Repository) MinSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.minSeq
}

// SetRetainSeq installs the GC retention floor: no segment holding records
// at or after seq is deleted, however many snapshots have superseded it.
// The replication leader plumbs the slowest active follower's acknowledged
// position (or LeaderOptions.RetainMinSeq, if lower) through here so a
// follower mid-stream never finds its next record compacted away. Zero
// clears the floor.
func (r *Repository) SetRetainSeq(seq uint64) {
	r.mu.Lock()
	r.retainSeq = seq
	r.mu.Unlock()
}

// RetainSeq reports the current GC retention floor (0 = none).
func (r *Repository) RetainSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retainSeq
}

// Watch returns a channel closed at the next record append — the long-poll
// primitive behind /v1/wal/stream. Each append replaces the channel, so a
// caller re-arms by calling Watch again after the close.
func (r *Repository) Watch() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watch
}

// ReadRecords returns raw frames for records [from, from+len(frames)) in
// order, accumulating whole frames until maxBytes is reached (always at
// least one when any record is available). An empty result means from is
// past the head: the caller should long-poll on Watch. from below MinSeq —
// or a segment deleted by a concurrent GC — reports ErrCompacted.
//
// Frames are returned exactly as they sit on disk (length + CRC32C header
// included), so the receiver re-verifies integrity with the same decoder
// recovery uses; the sender never parses payloads.
func (r *Repository) ReadRecords(from uint64, maxBytes int) ([][]byte, error) {
	if from == 0 {
		return nil, fmt.Errorf("wal: record sequences start at 1")
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	r.mu.Lock()
	head := r.headSeq
	min := r.minSeq
	starts := make(map[uint64]uint64, len(r.segStarts))
	for seg, start := range r.segStarts {
		starts[seg] = start
	}
	r.mu.Unlock()
	if from < min {
		return nil, fmt.Errorf("%w: seq %d < min retained %d", ErrCompacted, from, min)
	}
	if from > head {
		return nil, nil
	}

	segs := make([]uint64, 0, len(starts))
	for seg := range starts {
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	// Locate the segment whose range contains from.
	idx := 0
	for i, seg := range segs {
		if starts[seg] <= from {
			idx = i
		}
	}

	var frames [][]byte
	total := 0
	next := from
	for _, seg := range segs[idx:] {
		buf, err := readAll(r.fsys, filepath.Join(r.dir, segmentName(seg)))
		if err != nil {
			// GC raced the read and deleted the segment under us.
			return nil, fmt.Errorf("%w: segment %d unreadable: %v", ErrCompacted, seg, err)
		}
		seq := starts[seg]
		off := 0
		for off < len(buf) && next <= head {
			frame, nextOff, err := frameAt(buf, off)
			if err != nil {
				if seq > head {
					// A torn tail from an append in flight: everything at or
					// below head was complete when we captured it, so this
					// frame is beyond the window we promised.
					break
				}
				return nil, fmt.Errorf("wal: segment %d, offset %d: %w", seg, off, err)
			}
			if seq >= from {
				if total > 0 && total+len(frame) > maxBytes {
					return frames, nil
				}
				frames = append(frames, frame)
				total += len(frame)
				next = seq + 1
			}
			seq++
			off = nextOff
		}
		if next > head {
			break
		}
	}
	return frames, nil
}
