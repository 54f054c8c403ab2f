package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// Sentinel outcomes of one stream exchange that demand a re-bootstrap
// rather than a plain reconnect.
var (
	// errEpochFenced: the leader restarted; our sequence coordinates are
	// from a dead incarnation.
	errEpochFenced = errors.New("repl: leader epoch changed")
	// errCompactedRemote: the leader GC'd past our position (we were
	// partitioned longer than the retention window).
	errCompactedRemote = errors.New("repl: leader compacted past our position")
	// errDiverged: a verified record does not apply where it is stamped (see
	// wal.ApplyRecord) — our state is not the leader's at our position.
	errDiverged = errors.New("repl: follower state diverged from the leader's log")
)

// maxTransferBytes bounds any single snapshot or stream body read.
const maxTransferBytes = 256 << 20

// FollowerOptions configures NewFollower.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL (scheme://host:port). Required.
	LeaderURL string
	// FollowerID identifies this follower to the leader's retention
	// tracking (default: a random token).
	FollowerID string
	// Client performs the HTTP requests (default: a client with no global
	// timeout — long-polls are bounded per-request by context).
	Client *http.Client
	// MaxLag is the staleness bound behind readiness: the follower reports
	// unready when it has not confirmed being caught up within this window
	// (0 = never gate on lag).
	MaxLag time.Duration
	// Retry paces reconnects after transport failures, sharing the
	// federation backoff/budget policy.
	Retry federation.RetryConfig
	// OnBootstrap runs after every completed snapshot load (initial and
	// post-fencing), so the server can rebuild derived state — the G-SACS
	// reasoner's inferences — over the fresh triple set.
	OnBootstrap func()
	// Metrics, when non-nil, receives the follower's instruments.
	Metrics *obs.Registry
	// Logger receives replication diagnostics (nil = discard).
	Logger *slog.Logger
}

// FollowerStatus is the point-in-time replication state surfaced by
// /healthz on a follower. AppliedGeneration is the follower store's own
// generation, which is the leader's at the same log position.
type FollowerStatus struct {
	LeaderURL         string  `json:"leader_url"`
	Epoch             string  `json:"epoch,omitempty"`
	Bootstrapped      bool    `json:"bootstrapped"`
	Ready             bool    `json:"ready"`
	AppliedSeq        uint64  `json:"applied_seq"`
	LeaderHeadSeq     uint64  `json:"leader_head_seq"`
	AppliedGeneration uint64  `json:"applied_generation"`
	LeaderGeneration  uint64  `json:"leader_generation"`
	LagSeconds        float64 `json:"lag_seconds"`
	MaxLagSeconds     float64 `json:"max_lag_seconds,omitempty"`
	Reconnects        uint64  `json:"reconnects"`
	SnapshotTransfers uint64  `json:"snapshot_transfers"`
	CorruptRecords    uint64  `json:"corrupt_records,omitempty"`
	// LeaderSheds counts replication attempts the leader refused with 429:
	// the leader is shedding load and this follower is part of it. A rising
	// count with Ready=true means replication is riding out leader overload,
	// not a fault.
	LeaderSheds uint64 `json:"leader_sheds,omitempty"`
}

// State collapses the follower lifecycle into one label — "ready",
// "lagging" (bootstrapped but past the lag bound) or "bootstrapping" — the
// form /healthz and the cluster rollup report.
func (s FollowerStatus) State() string {
	switch {
	case s.Ready:
		return "ready"
	case s.Bootstrapped:
		return "lagging"
	default:
		return "bootstrapping"
	}
}

// Follower replicates a leader's WAL into st: bootstrap from a snapshot,
// then stream and apply records, re-bootstrapping whenever the leader
// fences it (restart) or compacts past it. Run drives the loop; the rest
// of the server reads the store as usual — every applied record publishes
// through the store's normal MVCC commit path.
type Follower struct {
	st     *store.Store
	opts   FollowerOptions
	client *http.Client
	logger *slog.Logger
	id     string

	mu            sync.Mutex
	epoch         string // pinned leader incarnation ("" before bootstrap)
	bootstrapped  bool
	appliedSeq    uint64    // last record sequence applied this epoch
	leaderHeadSeq uint64    // leader head from the last response
	leaderGen     uint64    // leader store generation from the last response
	lastCaughtUp  time.Time // last confirmation that appliedSeq == leader head
	started       time.Time
	reconnects    uint64
	snapshots     uint64
	corrupt       uint64
	leaderSheds   uint64

	budget *federation.RetryBudget

	mApplied    *obs.Counter
	mReconnects *obs.Counter
	mSnapshots  *obs.Counter
	mCorrupt    *obs.Counter
	mSheds      *obs.Counter
}

// NewFollower builds a follower replicating into st. st should start empty;
// bootstrap atomically replaces its contents regardless.
func NewFollower(st *store.Store, opts FollowerOptions) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, errors.New("repl: FollowerOptions.LeaderURL is required")
	}
	if opts.FollowerID == "" {
		opts.FollowerID = NewEpoch()
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	f := &Follower{
		st:      st,
		opts:    opts,
		client:  opts.Client,
		logger:  opts.Logger,
		id:      opts.FollowerID,
		started: time.Now(),
		budget:  federation.NewRetryBudget(opts.Retry),
	}
	reg := opts.Metrics
	f.mApplied = reg.Counter("grdf_repl_applied_records_total", "WAL records applied from the leader stream.")
	f.mReconnects = reg.Counter("grdf_repl_reconnects_total", "Stream reconnects after transport or stream errors.")
	f.mSnapshots = reg.Counter("grdf_repl_snapshot_transfers_total", "Bootstrap snapshot transfers performed.")
	f.mCorrupt = reg.Counter("grdf_repl_corrupt_records_total", "Stream records refused for failing CRC or structural checks.")
	f.mSheds = reg.Counter("grdf_repl_leader_sheds_total", "Replication attempts the leader refused with 429 (leader load shedding).")
	reg.GaugeFunc("grdf_repl_lag_seconds", "Seconds since this follower last confirmed being caught up.", f.LagSeconds)
	reg.GaugeFunc("grdf_repl_applied_generation", "Leader store generation this follower's state reflects.", func() float64 {
		return float64(st.Generation())
	})
	return f, nil
}

// Run drives the replication loop until ctx is cancelled: bootstrap,
// stream, apply, reconnect with backoff, re-bootstrap on fencing.
func (f *Follower) Run(ctx context.Context) {
	retryN := 0
	for ctx.Err() == nil {
		var err error
		if !f.isBootstrapped() {
			err = f.bootstrap(ctx)
		} else {
			err = f.streamOnce(ctx)
		}
		if err == nil {
			retryN = 0
			f.budget.Deposit()
			continue
		}
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errEpochFenced) || errors.Is(err, errCompactedRemote) || errors.Is(err, errDiverged) {
			f.logger.Warn("repl: follower fenced; discarding state and re-bootstrapping", "err", err)
			f.mu.Lock()
			f.bootstrapped = false
			f.mu.Unlock()
			continue
		}
		if federation.IsShed(err) {
			f.mSheds.Inc()
			f.mu.Lock()
			f.leaderSheds++
			f.mu.Unlock()
		}
		f.mReconnects.Inc()
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		retryN++
		delay := f.reconnectDelay(err, retryN, f.budget.Withdraw())
		f.logger.Warn("repl: stream attempt failed; backing off",
			"attempt", retryN, "delay", delay, "err", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// maxShedDelay caps how long a leader's Retry-After hint can stretch a
// reconnect pause — the hint is advice from an overloaded machine, and a
// replica that naps for minutes trades overload for staleness.
const maxShedDelay = 30 * time.Second

// reconnectDelay picks the pause before the next attempt: the retry policy's
// capped exponential backoff (the budget-exhausted trickle when budgetOK is
// false), stretched to the leader's Retry-After hint when it shed us — the
// leader knows its own drain time better than our exponent does.
func (f *Follower) reconnectDelay(err error, retryN int, budgetOK bool) time.Duration {
	n := retryN
	if !budgetOK {
		// Retry budget exhausted: the leader is persistently unreachable.
		// Fall back to the capped delay so a dead leader sees trickle
		// probes, not a reconnect storm.
		n = 1 << 10
	}
	delay := f.opts.Retry.Backoff(n)
	if hint := federation.RetryAfterHint(err); hint > delay {
		delay = hint
		if delay > maxShedDelay {
			delay = maxShedDelay
		}
	}
	return delay
}

func (f *Follower) isBootstrapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bootstrapped
}

// bootstrap performs a snapshot transfer and atomically replaces the
// store's contents with it at the leader's generation — one Load, one MVCC
// publish, so concurrent readers flip from old state to new state without
// ever observing an empty store.
func (f *Follower) bootstrap(ctx context.Context) error {
	reqCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	u := fmt.Sprintf("%s/v1/wal/snapshot?follower=%s", f.opts.LeaderURL, url.QueryEscape(f.id))
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot transfer: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return refusedError(resp, "snapshot transfer refused")
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes+1))
	if err != nil {
		return fmt.Errorf("repl: snapshot body: %w", err)
	}
	if len(body) > maxTransferBytes {
		return fmt.Errorf("repl: snapshot body exceeds %d bytes", maxTransferBytes)
	}
	gen, triples, err := wal.DecodeSnapshotBytes(body)
	if err != nil {
		// In-transit corruption fails the same CRC the on-disk format uses.
		f.mCorrupt.Inc()
		f.mu.Lock()
		f.corrupt++
		f.mu.Unlock()
		return fmt.Errorf("repl: snapshot rejected: %w", err)
	}
	epoch := resp.Header.Get(HeaderEpoch)
	if epoch == "" {
		return errors.New("repl: snapshot response missing epoch header")
	}
	nextSeq, err := strconv.ParseUint(resp.Header.Get(HeaderNextSeq), 10, 64)
	if err != nil || nextSeq == 0 {
		return fmt.Errorf("repl: snapshot response has bad %s header", HeaderNextSeq)
	}

	f.st.Load(gen, triples)

	f.mu.Lock()
	f.epoch = epoch
	f.bootstrapped = true
	f.appliedSeq = nextSeq - 1
	f.leaderHeadSeq = nextSeq - 1
	f.leaderGen = gen
	f.lastCaughtUp = time.Now()
	f.snapshots++
	f.mu.Unlock()
	f.mSnapshots.Inc()
	f.logger.Info("repl: bootstrapped from snapshot",
		"triples", len(triples), "generation", gen, "next_seq", nextSeq, "epoch", epoch)
	if f.opts.OnBootstrap != nil {
		f.opts.OnBootstrap()
	}
	return nil
}

// streamOnce performs one long-poll exchange and applies whatever arrives.
func (f *Follower) streamOnce(ctx context.Context) error {
	f.mu.Lock()
	from := f.appliedSeq + 1
	epoch := f.epoch
	f.mu.Unlock()
	poll := f.pollInterval()

	reqCtx, cancel := context.WithTimeout(ctx, poll+15*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/v1/wal/stream?from=%d&epoch=%s&follower=%s&poll_ms=%d",
		f.opts.LeaderURL, from, url.QueryEscape(epoch), url.QueryEscape(f.id), poll.Milliseconds())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: stream request: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes+1))
		if err != nil {
			return fmt.Errorf("repl: stream body: %w", err)
		}
		if len(body) > maxTransferBytes {
			return fmt.Errorf("repl: stream body exceeds %d bytes", maxTransferBytes)
		}
		return f.applyFrames(ctx, from, body, resp.Header)
	case http.StatusNoContent:
		f.noteHead(resp.Header)
		return nil
	case http.StatusConflict:
		return errEpochFenced
	case http.StatusGone:
		return errCompactedRemote
	default:
		return refusedError(resp, "stream refused")
	}
}

// refusedError wraps a non-200 leader answer, carrying its Retry-After hint
// (integer seconds) so the reconnect pause can honor it.
func refusedError(resp *http.Response, msg string) *federation.StatusError {
	se := &federation.StatusError{Status: resp.StatusCode, Msg: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// applyFrames decodes and applies a stream body record by record. Every
// frame re-runs the full CRC and structural verification; a record that
// fails is refused loudly and the good prefix is kept — the next request
// resumes from the last good sequence. A commit applies through the store's
// atomic batch path, so a partial commit can never publish, and only where
// it is stamped: one stamped below our generation is already in the
// snapshot we loaded, one that does not apply means we diverged, and we
// re-bootstrap.
func (f *Follower) applyFrames(ctx context.Context, from uint64, body []byte, hdr http.Header) error {
	seq := from
	off := 0
	for off < len(body) {
		rec, next, err := wal.DecodeRecord(body, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.mCorrupt.Inc()
			f.mu.Lock()
			f.corrupt++
			f.mu.Unlock()
			f.logger.Error("repl: corrupt record on stream; refusing, will resume from last good seq",
				"seq", seq, "offset", off, "resume_from", seq, "err", err)
			return fmt.Errorf("repl: corrupt stream record at seq %d: %w", seq, err)
		}
		_, sp := obs.StartSpan(ctx, "repl.apply")
		sp.SetAttr("kind", rec.Kind.String())
		sp.Add("seq", int64(seq))
		if err := wal.ApplyRecord(f.st, rec); err != nil {
			sp.Fail(err)
			sp.End()
			return fmt.Errorf("%w: record seq %d: %w", errDiverged, seq, err)
		}
		sp.End()
		f.mApplied.Inc()
		f.mu.Lock()
		f.appliedSeq = seq
		f.mu.Unlock()
		seq++
		off = next
	}
	f.noteHead(hdr)
	return nil
}

// noteHead records the leader position headers and refreshes the
// caught-up timestamp when we have applied everything the leader had.
func (f *Follower) noteHead(hdr http.Header) {
	head, err1 := strconv.ParseUint(hdr.Get(HeaderHeadSeq), 10, 64)
	gen, err2 := strconv.ParseUint(hdr.Get(HeaderHeadGen), 10, 64)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err1 == nil {
		f.leaderHeadSeq = head
		if f.appliedSeq >= head {
			f.lastCaughtUp = time.Now()
		}
	}
	if err2 == nil {
		f.leaderGen = gen
	}
}

// pollInterval is the long-poll bound requested from the leader: half the
// lag budget, so a healthy idle follower refreshes its caught-up proof
// well inside MaxLag.
func (f *Follower) pollInterval() time.Duration {
	if f.opts.MaxLag > 0 {
		p := f.opts.MaxLag / 2
		if p < 50*time.Millisecond {
			p = 50 * time.Millisecond
		}
		if p > 10*time.Second {
			p = 10 * time.Second
		}
		return p
	}
	return 5 * time.Second
}

// LagSeconds reports how long it has been since this follower last proved
// itself caught up with the leader. Grows without bound while the leader
// is unreachable — exactly the signal the readiness gate needs.
func (f *Follower) LagSeconds() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagSecondsLocked()
}

func (f *Follower) lagSecondsLocked() float64 {
	if f.lastCaughtUp.IsZero() {
		return time.Since(f.started).Seconds()
	}
	return time.Since(f.lastCaughtUp).Seconds()
}

// Ready reports whether this follower should serve reads: bootstrapped and
// within the configured lag bound.
func (f *Follower) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readyLocked()
}

func (f *Follower) readyLocked() bool {
	if !f.bootstrapped {
		return false
	}
	if f.opts.MaxLag <= 0 {
		return true
	}
	return f.lagSecondsLocked() <= f.opts.MaxLag.Seconds()
}

// Status returns the replication state block surfaced by /healthz.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		LeaderURL:         f.opts.LeaderURL,
		Epoch:             f.epoch,
		Bootstrapped:      f.bootstrapped,
		Ready:             f.readyLocked(),
		AppliedSeq:        f.appliedSeq,
		LeaderHeadSeq:     f.leaderHeadSeq,
		AppliedGeneration: f.st.Generation(),
		LeaderGeneration:  f.leaderGen,
		LagSeconds:        f.lagSecondsLocked(),
		MaxLagSeconds:     f.opts.MaxLag.Seconds(),
		Reconnects:        f.reconnects,
		SnapshotTransfers: f.snapshots,
		CorruptRecords:    f.corrupt,
		LeaderSheds:       f.leaderSheds,
	}
}
