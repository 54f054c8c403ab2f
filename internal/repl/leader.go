package repl

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// LeaderOptions configures NewLeader. Zero values select the defaults
// noted on each field.
type LeaderOptions struct {
	// PollTimeout bounds how long a caught-up stream request parks waiting
	// for the next append before answering 204 (default 10s).
	PollTimeout time.Duration
	// MaxBatchBytes bounds the frame payload of one stream response
	// (default 1 MiB; a single oversized record still ships alone).
	MaxBatchBytes int
	// FollowerTTL expires a follower's retention claim after this long
	// without a request, so a dead follower cannot pin segments forever
	// (default 30s).
	FollowerTTL time.Duration
	// RetainMinSeq is a manual retention floor (gsacs-server sets none);
	// the effective floor is the minimum of this and every active
	// follower's position. Zero = no manual floor.
	RetainMinSeq uint64
	// Metrics, when non-nil, receives the leader's instruments.
	Metrics *obs.Registry
	// Logger receives stream diagnostics (nil = discard).
	Logger *slog.Logger
}

// followerPos is one follower's replication claim: the next sequence it
// needs and when it last asked.
type followerPos struct {
	next uint64
	seen time.Time
}

// Leader serves the repository's WAL and snapshots to followers. One
// Leader wraps one open wal.Repository and its store; its epoch is minted
// at construction, so recreating the Leader (a process restart) fences all
// existing followers onto the snapshot path.
type Leader struct {
	st     *store.Store
	repo   *wal.Repository
	epoch  string
	opts   LeaderOptions
	logger *slog.Logger

	mu        sync.Mutex
	followers map[string]followerPos

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mStreams   *obs.Counter
	mRecords   *obs.Counter
	mSnapshots *obs.Counter
}

// NewLeader wraps st and repo for serving. The repository must be the one
// journalling st's mutations — the leader reads frames straight from its
// segments.
func NewLeader(st *store.Store, repo *wal.Repository, opts LeaderOptions) *Leader {
	if opts.PollTimeout <= 0 {
		opts.PollTimeout = 10 * time.Second
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 1 << 20
	}
	if opts.FollowerTTL <= 0 {
		opts.FollowerTTL = 30 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	l := &Leader{
		st:        st,
		repo:      repo,
		epoch:     NewEpoch(),
		opts:      opts,
		logger:    opts.Logger,
		followers: make(map[string]followerPos),
		stopCh:    make(chan struct{}),
	}
	reg := opts.Metrics
	l.mStreams = reg.Counter("grdf_repl_streams_served_total", "WAL stream responses served to followers.")
	l.mRecords = reg.Counter("grdf_repl_stream_records_total", "WAL records shipped to followers.")
	l.mSnapshots = reg.Counter("grdf_repl_snapshots_served_total", "Bootstrap snapshot transfers served to followers.")
	reg.GaugeFunc("grdf_repl_followers", "Followers with an unexpired replication claim.", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(len(l.followers))
	})
	reg.GaugeFunc("grdf_repl_retain_seq", "Effective WAL GC retention floor.", func() float64 {
		return float64(repo.RetainSeq())
	})
	l.updateRetention()
	// Refresh the retention floor on a timer too: a follower that dies
	// stops refreshing its claim, and without this its pinned segments
	// would survive until some other follower's request re-ran the expiry.
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(l.opts.FollowerTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-l.stopCh:
				return
			case <-t.C:
				l.updateRetention()
			}
		}
	}()
	return l
}

// Close stops the retention-refresh goroutine. The leader serves no
// further role after Close; its repository remains usable.
func (l *Leader) Close() {
	l.stopOnce.Do(func() { close(l.stopCh) })
	l.wg.Wait()
}

// Epoch returns the leader's incarnation token.
func (l *Leader) Epoch() string { return l.epoch }

// observeFollower records a follower's claim at nextSeq and refreshes the
// repository's GC retention floor. Empty ids (a follower that declined to
// identify itself) get no retention claim.
func (l *Leader) observeFollower(id string, nextSeq uint64) {
	if id == "" {
		return
	}
	l.mu.Lock()
	l.followers[id] = followerPos{next: nextSeq, seen: time.Now()}
	l.mu.Unlock()
	l.updateRetention()
}

// updateRetention recomputes the retention floor: the minimum of the
// manual floor and every unexpired follower's next needed sequence.
func (l *Leader) updateRetention() {
	now := time.Now()
	floor := l.opts.RetainMinSeq
	l.mu.Lock()
	for id, pos := range l.followers {
		if now.Sub(pos.seen) > l.opts.FollowerTTL {
			delete(l.followers, id)
			continue
		}
		if floor == 0 || pos.next < floor {
			floor = pos.next
		}
	}
	l.mu.Unlock()
	l.repo.SetRetainSeq(floor)
}

// ServeStream handles GET /v1/wal/stream?from=seq[&epoch=e][&follower=id]:
// long-polls until records at or after from exist, then ships them as raw
// CRC-framed bytes.
func (l *Leader) ServeStream(w http.ResponseWriter, r *http.Request) {
	_, sp := obs.StartSpan(r.Context(), "repl.stream")
	defer sp.End()

	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		sp.Fail(fmt.Errorf("bad from parameter"))
		http.Error(w, `{"error":"from must be a record sequence >= 1","code":"bad_request"}`, http.StatusBadRequest)
		return
	}
	if e := q.Get("epoch"); e != "" && e != l.epoch {
		// The follower replicated a previous incarnation: its sequence
		// coordinates are meaningless here. Fence it onto the snapshot path.
		sp.SetAttr("fenced", "true")
		w.Header().Set(HeaderEpoch, l.epoch)
		http.Error(w, `{"error":"leader epoch changed; re-bootstrap from snapshot","code":"epoch_fenced"}`, http.StatusConflict)
		return
	}
	l.observeFollower(q.Get("follower"), from)
	sp.Add("from", int64(from))

	// A follower may request a shorter long-poll bound than our default so
	// its caught-up proofs refresh inside its own lag budget.
	poll := l.opts.PollTimeout
	if ms, err := strconv.Atoi(q.Get("poll_ms")); err == nil && ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < poll {
			poll = d
		}
	}
	deadline := time.NewTimer(poll)
	defer deadline.Stop()
	for {
		// Arm the watch before reading: an append landing between the read
		// and the select still closes this channel, so no wakeup is lost.
		watch := l.repo.Watch()
		frames, err := l.repo.ReadRecords(from, l.opts.MaxBatchBytes)
		switch {
		case errors.Is(err, wal.ErrCompacted):
			w.Header().Set(HeaderEpoch, l.epoch)
			http.Error(w, `{"error":"requested records compacted; re-bootstrap from snapshot","code":"compacted"}`, http.StatusGone)
			return
		case err != nil:
			sp.Fail(err)
			l.logger.Error("repl: stream read failed", "from", from, "err", err)
			http.Error(w, `{"error":"stream read failed","code":"internal"}`, http.StatusInternalServerError)
			return
		}
		if len(frames) > 0 {
			l.setHeadHeaders(w)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			for _, frame := range frames {
				if _, err := w.Write(frame); err != nil {
					sp.Fail(err)
					return
				}
			}
			l.mStreams.Inc()
			l.mRecords.Add(float64(len(frames)))
			sp.Add("records", int64(len(frames)))
			return
		}
		select {
		case <-watch:
			continue
		case <-deadline.C:
			l.setHeadHeaders(w)
			w.WriteHeader(http.StatusNoContent)
			l.mStreams.Inc()
			sp.SetAttr("caught_up", "true")
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ServeSnapshot handles GET /v1/wal/snapshot[?follower=id]: a consistent
// full-state transfer for bootstrap or post-compaction catch-up.
//
// Consistency protocol: read the WAL head first, then barrier the store,
// then capture the view. Every record at or below the head read in step
// one is published in the captured view (its commit preceded the barrier);
// records appended during the window appear in both the snapshot and the
// follower's subsequent stream, where they re-apply idempotently — the
// same overlap contract the repository's own rotate-then-capture uses.
func (l *Leader) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	_, sp := obs.StartSpan(r.Context(), "repl.snapshot")
	defer sp.End()

	nextSeq := l.repo.HeadSeq() + 1
	l.st.Barrier()
	view := l.st.View()
	gen := view.Generation()
	body := wal.EncodeSnapshotBytes(gen, view.Triples())

	l.observeFollower(r.URL.Query().Get("follower"), nextSeq)
	w.Header().Set(HeaderEpoch, l.epoch)
	w.Header().Set(HeaderNextSeq, strconv.FormatUint(nextSeq, 10))
	w.Header().Set(HeaderGeneration, strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		sp.Fail(err)
		return
	}
	l.mSnapshots.Inc()
	sp.Add("bytes", int64(len(body)))
	sp.Add("generation", int64(gen))
	l.logger.Info("repl: snapshot served", "bytes", len(body), "generation", gen, "next_seq", nextSeq)
}

// setHeadHeaders stamps the leader's current position onto a stream
// response so the follower can measure its own lag.
func (l *Leader) setHeadHeaders(w http.ResponseWriter) {
	w.Header().Set(HeaderEpoch, l.epoch)
	w.Header().Set(HeaderHeadSeq, strconv.FormatUint(l.repo.HeadSeq(), 10))
	w.Header().Set(HeaderHeadGen, strconv.FormatUint(l.st.Generation(), 10))
}
