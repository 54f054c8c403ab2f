package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before every mutation acknowledgment: zero
	// acknowledged-mutation loss across SIGKILL and power failure.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval batches fsyncs on a timer: bounded loss window, far
	// higher throughput.
	FsyncInterval
	// FsyncOff never fsyncs explicitly (the OS flushes eventually). Crash
	// durability is best-effort; suitable for benchmarks and ephemera.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory holding segments and snapshots. Required.
	Dir string
	// FS overrides the filesystem (tests inject faults here). Nil means the
	// real one.
	FS FS
	// Fsync selects the durability/throughput trade-off.
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval (default 50ms).
	FsyncInterval time.Duration
	// SnapshotEvery triggers a background snapshot after this many appended
	// records (0 disables automatic snapshots; Snapshot can still be called).
	SnapshotEvery int
	// MaxAuditReplay caps how many recovered audit payloads are retained for
	// the caller, newest last (default 4096; the G-SACS audit ring is far
	// smaller).
	MaxAuditReplay int
	// Metrics, when non-nil, receives the repository's instruments.
	Metrics *obs.Registry
	// Logger receives recovery and snapshot diagnostics (nil = discard).
	Logger *slog.Logger
}

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the snapshot the state was loaded from (0 = none).
	SnapshotSeq uint64
	// SnapshotTriples is how many triples that snapshot held.
	SnapshotTriples int
	// SegmentsReplayed and RecordsReplayed count the WAL tail replay.
	SegmentsReplayed int
	RecordsReplayed  int
	// AuditRecords counts recovered audit payloads (see Repository.AuditReplay).
	AuditRecords int
	// TornTailTruncated reports that an incomplete final record was cut away.
	TornTailTruncated bool
	// Duration is the wall time recovery took.
	Duration time.Duration
}

// Repository is the durable ontology repository: it journals every store
// mutation to an append-only log before the store applies it, checkpoints the
// full state into checksummed snapshots, and garbage-collects superseded
// files. One Repository owns one data directory.
type Repository struct {
	fsys          FS
	dir           string
	policy        FsyncPolicy
	snapshotEvery int
	logger        *slog.Logger
	st            *store.Store

	mu               sync.Mutex // guards the append path and file rotation
	seg              File       // active segment, opened O_APPEND
	segSeq           uint64
	segBytes         int64 // bytes successfully appended to the active segment
	dirty            bool  // appended bytes not yet fsynced
	recordsSinceSnap int
	broken           error // fail-stop: first unrecoverable write/sync error
	closed           bool

	// Replication streaming state (also under mu). Record sequence numbers
	// are incarnation-local: rebuilt by indexSegments at recovery, advanced
	// by every append. See stream.go.
	headSeq   uint64            // seq of the newest appended record (0 = none yet)
	minSeq    uint64            // oldest record seq still streamable from disk
	segStarts map[uint64]uint64 // segment seq -> seq of its first record
	retainSeq uint64            // GC retention floor for followers (0 = none)
	watch     chan struct{}     // closed and replaced on every append (long-poll)

	snapMu sync.Mutex // serializes whole snapshot cycles

	recovery    RecoveryInfo
	auditReplay [][]byte

	// statusMu guards the snapshot provenance served by Status — written
	// rarely (recovery, snapshot completion), read by /healthz.
	statusMu    sync.Mutex
	lastSnapSeq uint64
	lastSnapGen uint64

	snapCh   chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mAppends  *obs.Counter
	mBytes    *obs.Counter
	mFsync    *obs.Histogram
	mSnaps    *obs.Counter
	mSnapDur  *obs.Histogram
	mSnapTrip *obs.Gauge
	mSnapSize *obs.Gauge
}

// errClosed is returned by appends after Close.
var errClosed = errors.New("wal: repository closed")

// Open recovers the durable state from opts.Dir into st — latest valid
// snapshot first, then the WAL tail — installs the commit hook that journals
// every subsequent mutation, and starts the background flush/snapshot
// goroutines. st must be new — empty and never written: the repository is
// the source of truth for its contents and its generation.
//
// A torn final record (partial last write before a crash) is truncated away.
// Corruption anywhere else — a failed checksum, a gap in the segment
// sequence, a mid-log torn record — refuses recovery with an error wrapping
// ErrCorrupt rather than serving silently wrong data.
func Open(st *store.Store, opts Options) (*Repository, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if st == nil {
		return nil, errors.New("wal: store is required")
	}
	if st.Len() != 0 || st.Generation() != 0 {
		return nil, fmt.Errorf("wal: store must be new before recovery (has %d triples at generation %d)",
			st.Len(), st.Generation())
	}
	r := &Repository{
		fsys:          opts.FS,
		dir:           opts.Dir,
		policy:        opts.Fsync,
		snapshotEvery: opts.SnapshotEvery,
		logger:        opts.Logger,
		st:            st,
		snapCh:        make(chan struct{}, 1),
		stopCh:        make(chan struct{}),
		watch:         make(chan struct{}),
	}
	if r.fsys == nil {
		r.fsys = OSFS()
	}
	if r.logger == nil {
		r.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	maxAudit := opts.MaxAuditReplay
	if maxAudit <= 0 {
		maxAudit = 4096
	}
	if err := r.fsys.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}

	start := time.Now()
	if err := r.recover(maxAudit); err != nil {
		return nil, err
	}
	if err := r.indexSegments(); err != nil {
		return nil, err
	}
	r.recovery.AuditRecords = len(r.auditReplay)
	r.recovery.Duration = time.Since(start)
	r.logger.Info("wal: recovery complete",
		"snapshot_seq", r.recovery.SnapshotSeq,
		"snapshot_triples", r.recovery.SnapshotTriples,
		"segments_replayed", r.recovery.SegmentsReplayed,
		"records_replayed", r.recovery.RecordsReplayed,
		"torn_tail_truncated", r.recovery.TornTailTruncated,
		"duration", r.recovery.Duration)

	r.instrument(opts.Metrics)
	st.SetGroupCommitHook(r.commitGroup)

	if r.policy == FsyncInterval {
		iv := opts.FsyncInterval
		if iv <= 0 {
			iv = 50 * time.Millisecond
		}
		r.wg.Add(1)
		go r.flushLoop(iv)
	}
	if r.snapshotEvery > 0 {
		r.wg.Add(1)
		go r.snapshotLoop()
	}
	return r, nil
}

// instrument registers the repository's metrics (nil-safe).
func (r *Repository) instrument(reg *obs.Registry) {
	r.mAppends = reg.Counter("grdf_wal_appends_total", "Records appended to the write-ahead log.")
	r.mBytes = reg.Counter("grdf_wal_bytes", "Bytes appended to the write-ahead log.")
	r.mFsync = reg.Histogram("grdf_wal_fsync_seconds", "WAL fsync latency.", nil)
	r.mSnaps = reg.Counter("grdf_snapshots_total", "Snapshots written.")
	r.mSnapDur = reg.Histogram("grdf_snapshot_duration_seconds", "Snapshot capture+write duration.", nil)
	r.mSnapTrip = reg.Gauge("grdf_snapshot_triples", "Triples in the most recent snapshot.")
	r.mSnapSize = reg.Gauge("grdf_snapshot_bytes", "Size of the most recent snapshot file.")
	reg.Gauge("grdf_recovery_seconds", "Wall time of the last crash recovery.").
		Set(r.recovery.Duration.Seconds())
	reg.GaugeFunc("grdf_wal_segments", "Live WAL segment files.", func() float64 {
		st, err := listDir(r.fsys, r.dir)
		if err != nil {
			return 0
		}
		return float64(len(st.segments))
	})
}

// recover loads the newest loadable snapshot, replays every later segment,
// and leaves the repository positioned to append to the highest segment.
func (r *Repository) recover(maxAudit int) error {
	dirSt, err := listDir(r.fsys, r.dir)
	if err != nil {
		return fmt.Errorf("wal: list data dir: %w", err)
	}

	// Newest snapshot first; a corrupt one falls back to its predecessor
	// (the GC keeps one exactly for this). Track the fallback so the segment
	// coverage check below can tell "no snapshot ever" from "all corrupt".
	var baseSeq uint64
	hadSnapshots := len(dirSt.snapshots) > 0
	loaded := false
	for i := len(dirSt.snapshots) - 1; i >= 0; i-- {
		seq := dirSt.snapshots[i]
		gen, triples, err := loadSnapshot(r.fsys, r.dir, seq)
		if err != nil {
			r.logger.Warn("wal: snapshot unusable, falling back", "seq", seq, "err", err)
			continue
		}
		r.st.Load(gen, triples)
		baseSeq = seq
		loaded = true
		r.recovery.SnapshotSeq = seq
		r.recovery.SnapshotTriples = len(triples)
		r.lastSnapSeq = seq
		r.lastSnapGen = gen
		break
	}
	if hadSnapshots && !loaded {
		// Every snapshot is corrupt. Full-log replay can still recover the
		// state, but only if segment 1 survived the GC.
		if len(dirSt.segments) == 0 || dirSt.segments[0] != 1 {
			return fmt.Errorf("%w: every snapshot is unusable and the log does not reach back to segment 1", ErrCorrupt)
		}
		r.logger.Warn("wal: all snapshots unusable; replaying the full log")
	}

	// Collect the segments to replay and verify they are contiguous from
	// baseSeq+1: a gap means a segment vanished and the state cannot be
	// reconstructed.
	var replay []uint64
	for _, seq := range dirSt.segments {
		if seq > baseSeq {
			replay = append(replay, seq)
		}
	}
	want := baseSeq + 1
	for _, seq := range replay {
		if seq != want {
			return fmt.Errorf("%w: segment %d missing (found %d)", ErrCorrupt, want, seq)
		}
		want++
	}

	for i, seq := range replay {
		final := i == len(replay)-1
		if err := r.replaySegment(seq, final, maxAudit); err != nil {
			return err
		}
		r.recovery.SegmentsReplayed++
	}

	// Position the append head. With no segments at all, start a fresh one
	// after the snapshot base.
	if len(replay) > 0 {
		r.segSeq = replay[len(replay)-1]
	} else {
		r.segSeq = baseSeq + 1
	}
	name := filepath.Join(r.dir, segmentName(r.segSeq))
	seg, err := r.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	r.seg = seg
	if fi, err := r.fsys.Stat(name); err == nil {
		r.segBytes = fi.Size()
	}
	if len(replay) == 0 {
		// Make the fresh segment's directory entry durable immediately, so a
		// crash before the first append still leaves a contiguous log.
		if err := syncDir(r.fsys, r.dir); err != nil {
			return fmt.Errorf("wal: sync data dir: %w", err)
		}
	}
	return nil
}

// replaySegment applies every record of one segment to the store. final
// marks the last segment, the only place a torn record is legal: it is
// truncated away. Commits the loaded snapshot already holds are skipped by
// ApplyRecord's generation rule.
func (r *Repository) replaySegment(seq uint64, final bool, maxAudit int) error {
	name := filepath.Join(r.dir, segmentName(seq))
	buf, err := readAll(r.fsys, name)
	if err != nil {
		return fmt.Errorf("wal: read segment %d: %w", seq, err)
	}
	off := 0
	for {
		rec, next, err := DecodeRecord(buf, off)
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, ErrTorn) {
			if !final {
				// A torn record can only be the last thing ever written. Mid-log
				// it means the file was damaged after the fact.
				return fmt.Errorf("%w: segment %d: torn record mid-log at offset %d: %v", ErrCorrupt, seq, off, err)
			}
			r.logger.Warn("wal: truncating torn tail", "segment", seq, "offset", off, "err", err)
			if terr := r.truncateSegment(name, int64(off)); terr != nil {
				return fmt.Errorf("wal: truncate torn tail of segment %d: %w", seq, terr)
			}
			r.recovery.TornTailTruncated = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("segment %d, offset %d: %w", seq, off, err)
		}
		if err := r.applyRecord(rec, maxAudit); err != nil {
			return fmt.Errorf("wal: replay segment %d, offset %d: %w", seq, off, err)
		}
		r.recovery.RecordsReplayed++
		off = next
	}
}

// truncateSegment shears the file at name to size and syncs it.
func (r *Repository) truncateSegment(name string, size int64) error {
	f, err := r.fsys.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// applyRecord replays one record into the store (or the audit buffer).
func (r *Repository) applyRecord(rec Record, maxAudit int) error {
	if rec.Kind == KindAudit {
		r.auditReplay = append(r.auditReplay, rec.Data)
		if len(r.auditReplay) > maxAudit {
			r.auditReplay = r.auditReplay[len(r.auditReplay)-maxAudit:]
		}
		return nil
	}
	return ApplyRecord(r.st, rec)
}

// ApplyRecord replays one record into st by the log's one rule: a commit
// applies to a store at exactly the generation it is stamped with, as one
// commit, moving the store to the next generation. A commit stamped below
// st's generation is already in st — the snapshot st was loaded from was
// taken after it — and is skipped. One stamped above means a commit between
// them is missing, and is refused with ErrCorrupt, as is a commit that
// changes nothing where it is stamped. Audit records are node-local state,
// not replicated data, and are skipped too. Shared by crash recovery and the
// replication follower, so a streamed record applies precisely the way the
// leader's own recovery would apply it.
func ApplyRecord(st *store.Store, rec Record) error {
	if rec.Kind != KindCommit {
		return nil
	}
	gen := st.Generation()
	switch {
	case rec.Gen < gen:
		return nil
	case rec.Gen > gen:
		return fmt.Errorf("%w: commit at generation %d, store at %d: a commit is missing", ErrCorrupt, rec.Gen, gen)
	}
	if _, err := st.ApplyBatch(rec.Ops); err != nil {
		return err
	}
	if st.Generation() != gen+1 {
		return fmt.Errorf("%w: commit at generation %d changed nothing: the store diverged from the log", ErrCorrupt, gen)
	}
	return nil
}

// Info returns what recovery reconstructed.
func (r *Repository) Info() RecoveryInfo { return r.recovery }

// Status is the durability state block surfaced by /healthz: snapshot
// provenance, live segment count, and how the last recovery went. It is a
// point-in-time read, cheap enough for a health probe.
type Status struct {
	// LastSnapshotSeq / LastSnapshotGen identify the most recent usable
	// snapshot (written this run, or loaded at recovery). Zero = none yet.
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`
	LastSnapshotGen uint64 `json:"last_snapshot_generation"`
	// Segments counts live WAL segment files on disk.
	Segments int `json:"segments"`
	// RecoverySeconds is the wall time the last crash recovery took.
	RecoverySeconds float64 `json:"recovery_seconds"`
	// RecordsReplayed counts WAL records replayed during that recovery.
	RecordsReplayed int `json:"records_replayed"`
	// TornTailTruncated reports whether recovery cut away a torn final record.
	TornTailTruncated bool `json:"torn_tail_truncated,omitempty"`
	// Broken reports the log has failed stop (an fsync error): the store is
	// effectively read-only until restart.
	Broken bool `json:"broken,omitempty"`
}

// WALStatus reports the repository's current durability state.
func (r *Repository) WALStatus() Status {
	st := Status{
		RecoverySeconds:   r.recovery.Duration.Seconds(),
		RecordsReplayed:   r.recovery.RecordsReplayed,
		TornTailTruncated: r.recovery.TornTailTruncated,
	}
	r.statusMu.Lock()
	st.LastSnapshotSeq = r.lastSnapSeq
	st.LastSnapshotGen = r.lastSnapGen
	r.statusMu.Unlock()
	r.mu.Lock()
	st.Broken = r.broken != nil
	r.mu.Unlock()
	if dirSt, err := listDir(r.fsys, r.dir); err == nil {
		st.Segments = len(dirSt.segments)
	}
	return st
}

// AuditReplay returns the audit payloads recovered from the log, oldest
// first, so the caller can restore its audit trail.
func (r *Repository) AuditReplay() [][]byte { return r.auditReplay }

// commitGroup is the store's group commit hook: journal every commit of the
// group before the store publishes any of it. It runs under the store writer
// lock, so append order is exactly apply order; an error here aborts the
// whole group and no caller sees an ack. Each commit becomes one KindCommit
// record, so torn-tail truncation can only ever drop whole commits. The group
// pays one segment write and — under FsyncAlways — one fsync, however many
// concurrent commits it carries: that is the whole point.
//
// Each commit's request context (when present) carries its trace, so the
// durability cost shows up as wal.append / wal.fsync spans per mutation.
func (r *Repository) commitGroup(groups [][]store.Op) error {
	frames := make([][]byte, 0, len(groups))
	spans := make([]*obs.Span, 0, len(groups))
	finish := func(err error) {
		for _, sp := range spans {
			if err != nil {
				sp.Fail(err)
			}
			sp.End()
		}
	}
	fsyncCtx := context.Background()
	for i, ops := range groups {
		ctx := context.Background()
		if ops[0].Ctx != nil {
			ctx = ops[0].Ctx
		}
		if i == 0 {
			fsyncCtx = ctx
		}
		_, sp := obs.StartSpan(ctx, "wal.append")
		spans = append(spans, sp)
		triples := 0
		for _, op := range ops {
			triples += len(op.Triples)
		}
		sp.Add("ops", int64(len(ops)))
		sp.Add("triples", int64(triples))
		frame, err := encodeRecord(Record{Kind: KindCommit, Gen: ops[0].Gen, Ops: ops})
		if err != nil {
			finish(err)
			return err
		}
		sp.Add("bytes", int64(len(frame)))
		frames = append(frames, frame)
	}
	err := r.appendFrames(fsyncCtx, frames, r.policy == FsyncAlways)
	finish(err)
	return err
}

// AppendAudit journals an opaque audit payload. Audit entries are never
// individually fsynced: under FsyncAlways the next mutation record's fsync
// flushes them, and an audit entry always precedes the mutation it describes
// — so any acknowledged mutation's audit trail is durable with it.
func (r *Repository) AppendAudit(data []byte) error {
	frame, err := encodeRecord(Record{Kind: KindAudit, Data: data})
	if err != nil {
		return err
	}
	return r.append(context.Background(), frame, false)
}

// append writes one frame to the active segment, optionally fsyncing.
//
// Failure handling is deliberately asymmetric. A failed *write* is repaired
// by truncating back to the last committed offset — the frame never happened.
// A failed *fsync* is fail-stop: the kernel may have dropped dirty pages we
// can no longer re-write (the "fsyncgate" lesson), so the log is marked
// broken and every later append refuses until the process restarts and
// recovery re-establishes a trustworthy tail.
func (r *Repository) append(ctx context.Context, frame []byte, syncNow bool) error {
	return r.appendFrames(ctx, [][]byte{frame}, syncNow)
}

// appendFrames writes a group of frames to the active segment as one
// contiguous write, optionally fsyncing once afterwards. The write is
// all-or-nothing: on failure the segment is truncated back to the last
// committed offset, so a group never half-lands.
func (r *Repository) appendFrames(ctx context.Context, frames [][]byte, syncNow bool) error {
	buf := frames[0]
	if len(frames) > 1 {
		total := 0
		for _, f := range frames {
			total += len(f)
		}
		buf = make([]byte, 0, total)
		for _, f := range frames {
			buf = append(buf, f...)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("wal: log broken by earlier error: %w", r.broken)
	}
	if r.closed {
		return errClosed
	}
	if _, err := r.seg.Write(buf); err != nil {
		// Repair the torn frames so the in-memory offset stays truthful. If
		// even that fails, the tail is untrustworthy: fail stop.
		name := filepath.Join(r.dir, segmentName(r.segSeq))
		if terr := r.truncateSegment(name, r.segBytes); terr != nil {
			r.broken = fmt.Errorf("write failed (%v) and truncate-repair failed: %w", err, terr)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	r.segBytes += int64(len(buf))
	r.dirty = true
	if syncNow {
		if err := r.syncCtxLocked(ctx); err != nil {
			return err
		}
	}
	// Advance the replication head and wake any long-polling streamers. Only
	// after a successful write (and fsync, when demanded): a record a
	// follower can see is always one the leader would survive a crash with.
	r.headSeq += uint64(len(frames))
	close(r.watch)
	r.watch = make(chan struct{})
	r.mAppends.Add(float64(len(frames)))
	r.mBytes.Add(float64(len(buf)))
	r.recordsSinceSnap += len(frames)
	if r.snapshotEvery > 0 && r.recordsSinceSnap >= r.snapshotEvery {
		select {
		case r.snapCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// syncLocked fsyncs the active segment; a failure breaks the log (fail-stop).
func (r *Repository) syncLocked() error {
	return r.syncCtxLocked(context.Background())
}

// syncCtxLocked is syncLocked with a request context: when ctx carries a
// trace (FsyncAlways on the mutation path), the fsync cost gets its own span.
func (r *Repository) syncCtxLocked(ctx context.Context) error {
	if !r.dirty {
		return nil
	}
	_, sp := obs.StartSpan(ctx, "wal.fsync")
	start := time.Now()
	if err := r.seg.Sync(); err != nil {
		r.broken = fmt.Errorf("fsync failed: %w", err)
		sp.Fail(err)
		sp.End()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	sp.End()
	r.mFsync.ObserveSince(start)
	r.dirty = false
	return nil
}

// Sync flushes any unsynced appends to stable storage.
func (r *Repository) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("wal: log broken by earlier error: %w", r.broken)
	}
	if r.closed {
		return errClosed
	}
	return r.syncLocked()
}

// flushLoop services the FsyncInterval policy.
func (r *Repository) flushLoop(interval time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.mu.Lock()
			if !r.closed && r.broken == nil {
				if err := r.syncLocked(); err != nil {
					r.logger.Error("wal: interval fsync failed; log is now fail-stop", "err", err)
				}
			}
			r.mu.Unlock()
		}
	}
}

// snapshotLoop services automatic snapshot triggers.
func (r *Repository) snapshotLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.snapCh:
			if err := r.Snapshot(); err != nil {
				r.logger.Error("wal: background snapshot failed", "err", err)
			}
		}
	}
}

// Snapshot checkpoints the current store state and garbage-collects
// superseded files. The sequence is rotate, barrier, capture: the log rotates
// to a fresh segment first; the barrier waits until every commit appended
// before the rotation is published; then one pinned version is captured, its
// generation and triples together. So every commit not in the snapshot lives
// in a segment after it. Commits that land between rotation and capture
// appear in both; replay skips them, because their generation stamps are
// below the snapshot's.
func (r *Repository) Snapshot() error {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	start := time.Now()

	// Rotate under the append lock.
	r.mu.Lock()
	if r.broken != nil {
		err := r.broken
		r.mu.Unlock()
		return fmt.Errorf("wal: log broken by earlier error: %w", err)
	}
	if r.closed {
		r.mu.Unlock()
		return errClosed
	}
	if err := r.syncLocked(); err != nil {
		r.mu.Unlock()
		return err
	}
	oldSeq := r.segSeq
	newName := filepath.Join(r.dir, segmentName(oldSeq+1))
	seg, err := r.fsys.OpenFile(newName, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(r.fsys, r.dir); err != nil {
		seg.Close()
		r.fsys.Remove(newName)
		r.mu.Unlock()
		return fmt.Errorf("wal: rotate dir sync: %w", err)
	}
	old := r.seg
	r.seg = seg
	r.segSeq = oldSeq + 1
	r.segBytes = 0
	r.dirty = false
	r.recordsSinceSnap = 0
	r.segStarts[r.segSeq] = r.headSeq + 1
	r.mu.Unlock()
	if err := old.Close(); err != nil {
		r.logger.Warn("wal: closing rotated segment", "seq", oldSeq, "err", err)
	}

	// Capture outside the append lock: mutations continue into the new
	// segment while the snapshot is written.
	r.st.Barrier()
	view := r.st.View()
	gen := view.Generation()
	triples := view.Triples()
	size, err := writeSnapshot(r.fsys, r.dir, oldSeq, gen, triples)
	if err != nil {
		return err
	}
	r.mSnaps.Inc()
	r.mSnapDur.ObserveSince(start)
	r.mSnapTrip.Set(float64(len(triples)))
	r.mSnapSize.Set(float64(size))
	r.statusMu.Lock()
	r.lastSnapSeq = oldSeq
	r.lastSnapGen = gen
	r.statusMu.Unlock()
	r.logger.Info("wal: snapshot written", "seq", oldSeq, "triples", len(triples),
		"bytes", size, "duration", time.Since(start))

	r.gc()
	return nil
}

// gc deletes superseded files: all but the two newest snapshots, and every
// segment already covered by the older kept snapshot. Keeping one predecessor
// snapshot (and the segments after it) lets recovery fall back if the newest
// snapshot turns out corrupt.
//
// A non-zero retention floor (SetRetainSeq) additionally pins every segment
// holding record sequences at or after the floor — the replication leader
// keeps the floor at the slowest active follower's acknowledged position, so
// GC can never delete a segment between a follower's acked seq and the head.
// Because segment record ranges are ascending, the pinned set is always a
// suffix of the log: the streamable window stays contiguous.
func (r *Repository) gc() {
	dirSt, err := listDir(r.fsys, r.dir)
	if err != nil {
		r.logger.Warn("wal: gc list", "err", err)
		return
	}
	if len(dirSt.snapshots) < 2 {
		return
	}
	keepFrom := dirSt.snapshots[len(dirSt.snapshots)-2]
	for _, seq := range dirSt.snapshots[:len(dirSt.snapshots)-2] {
		if err := r.fsys.Remove(filepath.Join(r.dir, snapshotName(seq))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			r.logger.Warn("wal: gc snapshot", "seq", seq, "err", err)
		}
	}

	r.mu.Lock()
	retain := r.retainSeq
	head := r.headSeq
	starts := make(map[uint64]uint64, len(r.segStarts))
	for seg, start := range r.segStarts {
		starts[seg] = start
	}
	r.mu.Unlock()
	// Last record seq per streamable segment: next segment's start - 1, and
	// the head for the newest.
	ordered := make([]uint64, 0, len(starts))
	for seg := range starts {
		ordered = append(ordered, seg)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	ends := make(map[uint64]uint64, len(ordered))
	for i, seg := range ordered {
		if i+1 < len(ordered) {
			ends[seg] = starts[ordered[i+1]] - 1
		} else {
			ends[seg] = head
		}
	}

	var deleted []uint64
	for _, seq := range dirSt.segments {
		if seq > keepFrom {
			continue
		}
		if retain > 0 {
			if end, ok := ends[seq]; ok && end >= retain {
				r.logger.Info("wal: gc pinned segment below retention floor",
					"segment", seq, "end_seq", end, "retain_seq", retain)
				continue
			}
		}
		if err := r.fsys.Remove(filepath.Join(r.dir, segmentName(seq))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			r.logger.Warn("wal: gc segment", "seq", seq, "err", err)
		} else {
			deleted = append(deleted, seq)
		}
	}
	if len(deleted) > 0 {
		r.mu.Lock()
		for _, seq := range deleted {
			delete(r.segStarts, seq)
		}
		r.minSeq = r.minSeqLocked()
		r.mu.Unlock()
	}
}

// Close stops the background goroutines, flushes the log and closes the
// active segment. The commit hook stays installed and refuses further
// mutations — after Close the store is read-only by construction.
func (r *Repository) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	if r.broken == nil && r.policy != FsyncOff && r.dirty {
		start := time.Now()
		if err := r.seg.Sync(); err != nil {
			first = fmt.Errorf("wal: close fsync: %w", err)
		} else {
			r.mFsync.ObserveSince(start)
			r.dirty = false
		}
	}
	if err := r.seg.Close(); err != nil && first == nil {
		first = fmt.Errorf("wal: close segment: %w", err)
	}
	return first
}
