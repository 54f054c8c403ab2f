// Package store provides the indexed, concurrency-safe triple store that
// backs every GRDF dataset in the system: the ontology repository of the
// G-SACS architecture (Fig. 3 of the paper), the hydrology and chemical data
// stores of the Section 7.1 scenario, and the working set of the OWL
// reasoner.
//
// Storage is dictionary-encoded: every term is interned into a lock-striped
// Dict (term ⇄ dense uint32 ID) and the three persistent indexes (SPO, POS,
// OSP) hold ID triples, so that any triple pattern with at least one bound
// position resolves without a full scan and joins can run entirely in ID
// space. Per-branch cardinality counts ride along with the indexes and feed
// the SPARQL planner's selectivity estimates in O(1).
//
// Concurrency is MVCC: the current revision is an immutable version
// published through one atomic pointer. Readers acquire it with a single
// atomic load (View) and never block — not on writers, not on each other —
// while writers path-copy the persistent indexes to build the next version.
// Mutations funnel through a group-commit batcher: concurrent Apply calls
// enqueue, one caller becomes the leader, drains the queue, runs the commit
// hook once for the whole group (for the WAL hook: one append + one fsync),
// and publishes a single new version. Snapshot() and View() are O(1) and may
// be held indefinitely without stalling anything.
package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// OpKind identifies the kind of a batch mutation Op.
type OpKind uint8

const (
	// OpAdd inserts a batch of triples.
	OpAdd OpKind = iota + 1
	// OpRemove deletes a batch of triples.
	OpRemove
	// OpReplace swaps Triples[0] for Triples[1].
	OpReplace
	// OpClear removes every triple.
	OpClear
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReplace:
		return "replace"
	case OpClear:
		return "clear"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op describes one mutation of a commit. It is both the store's uniform
// mutation request and the unit the write-ahead log persists: the commit
// hook receives exactly this value before the store publishes it.
type Op struct {
	Kind OpKind
	// Triples carries the batch for OpAdd/OpRemove; for OpReplace it holds
	// exactly [old, new]. Empty for OpClear.
	Triples []rdf.Triple
	// Gen is the store generation the op's commit was applied against — the
	// same for every op of the commit. The store fills it in; callers leave
	// it zero.
	Gen uint64
	// MustExist makes an OpReplace whose old triple is absent an error
	// (ErrAbsent) instead of a silent no-op. It fails the whole commit before
	// anything is logged or applied — it is how /v1/mutate gives "update"
	// not-found semantics without a racy pre-check.
	MustExist bool
	// Ctx carries the request context of the mutation, if any, so a commit
	// hook can attach observability spans (WAL append/fsync) to the
	// originating trace. Nil means no request context (recovery, tests,
	// internal maintenance); hooks must treat it as context.Background().
	// Carrying a context in a struct is deliberate here, for the same reason
	// http.Request does it: the Op is the request.
	Ctx context.Context
}

// GroupCommitHook observes one commit group before it is acknowledged, while
// the writer lock is held. Each element is one commit — the effective ops of
// one Apply or ApplyBatch — in exact apply order, no-ops already filtered
// out. The hook runs once per group however many concurrent callers were
// batched together, so a WAL hook pays one append and one fsync per group.
// An error fails every op in the group and nothing is published: this is how
// the WAL layer refuses to acknowledge writes it could not make durable. The
// hook must not mutate the store (it would deadlock).
type GroupCommitHook func(groups [][]Op) error

// ErrCommitHook marks mutation failures caused by the commit hook refusing
// the batch (for a WAL hook: the write could not be made durable). Callers
// can errors.Is against it to tell persistence failures from validation
// errors.
var ErrCommitHook = errors.New("commit hook refused mutation")

// ErrAbsent marks a MustExist replace whose old triple was not present.
var ErrAbsent = errors.New("required triple absent")

// lockSampleEvery is the commit-hold sampling period (power of two).
const lockSampleEvery = 16

// defaultMaxBatch bounds how many queued commits one leader drains.
const defaultMaxBatch = 128

// defaultMaxDelay is the default straggler-gathering window. The leader only
// ever waits while other writers are verifiably in flight, so the delay
// costs a serial workload nothing (see lead).
const defaultMaxDelay = 500 * time.Microsecond

// gatherGraceYields is how many consecutive empty-queue scheduler yields the
// leader tolerates before deciding no more writers are coming. Writers woken
// by the previous group need a moment to re-enter submit; on a busy machine
// one yield is usually enough for all of them.
const gatherGraceYields = 8

// commitWaiter is one enqueued commit — all-or-nothing, one generation — plus
// the slots its results are delivered in.
type commitWaiter struct {
	ops  []Op
	ns   []int
	err  error
	eff  []Op
	done chan struct{}
}

// batchHist is the group-commit batch-size histogram for /v1/store:
// buckets count groups of size 1, 2–3, 4–7, 8–15, and 16+.
const batchBuckets = 5

// BatchBucketLabels names the GroupCommitStats histogram buckets.
var BatchBucketLabels = [batchBuckets]string{"1", "2-3", "4-7", "8-15", "16+"}

// GroupCommitStats summarizes the commit batcher's behavior since startup.
type GroupCommitStats struct {
	// Groups is the number of published commit groups: one version each.
	Groups uint64
	// Ops is the total number of effective ops committed across all groups.
	Ops uint64
	// MaxBatch is the largest group observed.
	MaxBatch uint64
	// Hist counts groups per size bucket (see BatchBucketLabels).
	Hist [batchBuckets]uint64
}

type batchStats struct {
	groups  atomic.Uint64
	ops     atomic.Uint64
	max     atomic.Uint64
	buckets [batchBuckets]atomic.Uint64
}

func (b *batchStats) record(n int) {
	b.groups.Add(1)
	b.ops.Add(uint64(n))
	for {
		cur := b.max.Load()
		if uint64(n) <= cur || b.max.CompareAndSwap(cur, uint64(n)) {
			break
		}
	}
	var bucket int
	switch {
	case n <= 1:
		bucket = 0
	case n <= 3:
		bucket = 1
	case n <= 7:
		bucket = 2
	case n <= 15:
		bucket = 3
	default:
		bucket = 4
	}
	b.buckets[bucket].Add(1)
}

func (b *batchStats) snapshot() GroupCommitStats {
	out := GroupCommitStats{
		Groups:   b.groups.Load(),
		Ops:      b.ops.Load(),
		MaxBatch: b.max.Load(),
	}
	for i := range b.buckets {
		out.Hist[i] = b.buckets[i].Load()
	}
	return out
}

// Store is an indexed triple store. The zero value is not usable; call New.
type Store struct {
	dict *Dict
	// cur is the published version; every read path starts with one atomic
	// load of it and never takes a lock.
	cur atomic.Pointer[version]

	// writeMu serializes version building. Whoever holds it is the commit
	// leader; everyone else's work is either already queued (and will be
	// committed by the leader) or waits to lead the next group.
	writeMu sync.Mutex
	// qmu guards the commit queue. It is only ever held for O(1) append or
	// drain, so enqueueing never waits on an in-flight fsync.
	qmu   sync.Mutex
	queue []*commitWaiter
	// leading (guarded by qmu) is true while some goroutine is the commit
	// leader. The first writer to enqueue onto an idle batcher elects itself;
	// everyone else parks on their waiter's done channel and never touches
	// writeMu, so a closed done wakes them with nothing left to contend on.
	leading bool
	// inflight counts ops that have entered submit and not yet been
	// committed. The leader uses it to tell "more writers are on their way"
	// (keep gathering) from "the queue has genuinely dried up" (commit now).
	inflight atomic.Int64

	groupHook GroupCommitHook

	maxBatch int
	maxDelay time.Duration

	batches batchStats

	// mLockHold, when set by Instrument, samples commit-leader hold times.
	// holdTick picks every lockSampleEvery-th group so the hot path pays one
	// atomic increment, not a clock read, per commit.
	mLockHold  *obs.Histogram
	mBatchSize *obs.Histogram
	holdTick   atomic.Uint64
}

// Instrument exports the store's vitals into reg: triple count, generation
// and dictionary size as callback gauges (zero hot-path cost), a sampled
// commit hold-time histogram, and the group-commit batch-size distribution.
// Call before concurrent use.
func (s *Store) Instrument(reg *obs.Registry) *Store {
	if reg == nil {
		return s
	}
	reg.GaugeFunc("grdf_store_triples", "Triples in the data store.",
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("grdf_store_generation",
		"Commits since the empty store.",
		func() float64 { return float64(s.Generation()) })
	reg.GaugeFunc("grdf_store_dict_terms",
		"Distinct terms interned in the store dictionary.",
		func() float64 { return float64(s.DictLen()) })
	s.mLockHold = reg.Histogram("grdf_store_write_lock_hold_seconds",
		"Commit-leader hold time, sampled every 16th commit group.", nil)
	s.mBatchSize = reg.Histogram("grdf_store_commit_batch_size",
		"Effective ops per group commit.", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	return s
}

// beginHold starts timing this commit when it falls on the sampling grid;
// returns the zero time otherwise.
func (s *Store) beginHold() time.Time {
	if s.mLockHold == nil {
		return time.Time{}
	}
	if s.holdTick.Add(1)%lockSampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// endHold records a sampled hold begun by beginHold.
func (s *Store) endHold(start time.Time) {
	if !start.IsZero() {
		s.mLockHold.ObserveSince(start)
	}
}

// New returns an empty store with a fresh dictionary.
func New() *Store { return NewWithDict(NewDict()) }

// NewWithDict returns an empty store interning into dict. Sharing one
// dictionary across stores keeps their ID spaces compatible (Snapshot relies
// on this); the dictionary only grows, so sharing is always safe.
func NewWithDict(dict *Dict) *Store {
	s := &Store{dict: dict, maxBatch: defaultMaxBatch, maxDelay: defaultMaxDelay}
	s.cur.Store(&version{terms: dict.View()})
	return s
}

// FromGraph loads all triples of g into a fresh store.
func FromGraph(g *rdf.Graph) *Store {
	s := New()
	s.AddGraph(g)
	return s
}

// Dict exposes the store's interning dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// DictLen returns the number of terms interned so far.
func (s *Store) DictLen() int { return s.dict.Len() }

// LookupID returns the dictionary ID of t without interning it; ok is false
// when t has never been stored.
func (s *Store) LookupID(t rdf.Term) (ID, bool) { return s.dict.Lookup(t) }

// Intern interns t into the store's dictionary and returns its ID. It does
// not add any triple.
func (s *Store) Intern(t rdf.Term) ID { return s.dict.Intern(t) }

// TermOf resolves a dictionary ID back to its term (nil for NoID).
func (s *Store) TermOf(id ID) rdf.Term { return s.dict.Term(id) }

// DictView captures a lock-free ID→term resolver over the current
// dictionary contents (see Dict.View).
func (s *Store) DictView() DictView { return s.dict.View() }

// View pins the current published version: one atomic load, O(1), never
// blocking. The view stays valid (and consistent) forever; writers keep
// publishing new versions alongside it.
func (s *Store) View() StoreView { return StoreView{v: s.cur.Load(), dict: s.dict} }

// SetGroupCommitHook installs (or, with nil, removes) the group commit hook.
// Install it only while no mutations are in flight — typically right after
// recovery, before the store serves traffic.
func (s *Store) SetGroupCommitHook(h GroupCommitHook) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.groupHook = h
}

// SetCommitBatching bounds the commit batcher: a leader drains at most
// maxBatch queued commits per group (0 restores the default of 128), and a
// leader whose first drain comes up short gathers stragglers for at most
// maxDelay before committing (0 disables gathering; the default is 500µs).
// Gathering time is only ever spent while other writers are verifiably in
// flight, so serial workloads pay nothing.
func (s *Store) SetCommitBatching(maxBatch int, maxDelay time.Duration) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	s.maxBatch = maxBatch
	if maxDelay < 0 {
		maxDelay = 0
	}
	s.maxDelay = maxDelay
}

// GroupCommitStats returns the commit batcher's size distribution.
func (s *Store) GroupCommitStats() GroupCommitStats { return s.batches.snapshot() }

// Apply commits op on its own — a one-op ApplyBatch — and returns how many
// triples changed. Invalid triples in an OpAdd batch are skipped (matching
// AddAll); an OpReplace whose old triple is absent returns (0, nil) without
// reaching the hook. A failure is the op's own error, not a BatchError.
func (s *Store) Apply(op Op) (int, error) {
	ns, err := s.ApplyBatch([]Op{op})
	var be *BatchError
	if errors.As(err, &be) {
		return 0, be.Err
	}
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

// ApplyBatch applies ops as one commit: all-or-nothing, one generation
// however many ops land (none when no op changes anything), and — through the
// group hook — one WAL record. The call may be group-committed together with
// other concurrent commits: the hook then runs once for the whole group, but
// each commit keeps its own result. The returned slice holds per-op
// changed-triple counts. Any validation failure, MustExist miss, or hook
// refusal leaves the store untouched; the first two name the failing op via
// BatchError.
func (s *Store) ApplyBatch(ops []Op) ([]int, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	w := &commitWaiter{ops: ops, done: make(chan struct{})}
	s.submit(w)
	return w.ns, w.err
}

// Load replaces the store's contents with triples at generation gen in one
// publish, without reaching the commit hook: it installs a state that is
// already durable elsewhere — a snapshot being recovered, or the leader's
// snapshot a follower bootstraps from — at the generation it was taken at, so
// the records logged after it apply on top. Concurrent readers flip from the
// old version to the new one; commits queued behind it apply to it. Invalid
// and duplicate triples are skipped.
func (s *Store) Load(gen uint64, triples []rdf.Triple) {
	valid := make([]rdf.Triple, 0, len(triples))
	for _, t := range triples {
		if t.Valid() {
			valid = append(valid, t)
		}
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	b := newBuilder(emptyVersion, s.dict)
	b.addBulk(valid)
	b.generation = gen
	s.cur.Store(b.seal())
}

// Barrier blocks until every mutation submitted before the call has been
// committed and published. It rides the group-commit queue as an empty
// waiter: FIFO processing means the barrier's group cannot commit before
// any group enqueued ahead of it. The replication leader uses this to
// order a snapshot capture against the WAL position read just before it.
func (s *Store) Barrier() {
	w := &commitWaiter{done: make(chan struct{})}
	s.submit(w)
}

// BatchError reports which op of an atomic batch failed.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("op %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// submit enqueues w and blocks until some leader (possibly this goroutine)
// has committed it. Queue order is commit order is WAL order.
//
// The first writer to enqueue onto an idle batcher becomes the leader: it
// takes writeMu and commits groups until the queue is empty, then retires.
// Every other writer parks on its done channel — the leader closes it once
// the op is durable — so a committed writer's wake-up path is one channel
// receive, never a lock acquisition behind the next group's fsync.
func (s *Store) submit(w *commitWaiter) {
	s.inflight.Add(1)
	s.qmu.Lock()
	s.queue = append(s.queue, w)
	lead := !s.leading
	if lead {
		s.leading = true
	}
	s.qmu.Unlock()
	if !lead {
		<-w.done
		return
	}
	s.writeMu.Lock()
	for {
		s.lead()
		// Retire only on a verifiably empty queue; the check and the flag
		// clear are one qmu critical section, so a racing enqueuer either
		// sees leading=true (and parks) or finds the flag clear and elects
		// itself. No waiter is ever left behind.
		s.qmu.Lock()
		if len(s.queue) == 0 {
			s.leading = false
			s.qmu.Unlock()
			break
		}
		s.qmu.Unlock()
	}
	s.writeMu.Unlock()
	// The leader's own op was at the head of the first group it drained
	// (retirement guarantees the queue was empty when it enqueued), so done
	// is closed by now; the receive is an invariant check, not a wait.
	<-w.done
}

// drain takes up to max waiters off the queue.
func (s *Store) drain(max int) []*commitWaiter {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	n := len(s.queue)
	if n == 0 {
		return nil
	}
	if n > max {
		n = max
	}
	batch := s.queue[:n:n]
	s.queue = s.queue[n:]
	if len(s.queue) == 0 {
		// Drop the backing array with it: its slots still point at the
		// drained waiters, and a waiter holds the whole batch it carried —
		// for a store loaded by one AddAll and then only read (a role view),
		// two copies of every triple, for as long as the store lives.
		s.queue = nil
	}
	return batch
}

// lead runs one group commit. Caller holds writeMu.
func (s *Store) lead() {
	batch := s.drain(s.maxBatch)
	if len(batch) == 0 {
		return
	}
	if d := s.maxDelay; d > 0 && len(batch) < s.maxBatch {
		// Gather stragglers before paying the fsync, in the spirit of
		// Postgres's commit_delay/commit_siblings: keep collecting while other
		// writers are demonstrably in flight (inflight counts them), and give
		// just-committed writers a short grace to re-enter before concluding
		// the queue has dried up. A solitary writer exits this loop after a
		// few scheduler yields, so the delay never taxes serial workloads.
		// Only writeMu is held throughout: readers are unaffected and later
		// writers enqueue through qmu without waiting.
		deadline := time.Now().Add(d)
		idle := 0
		for len(batch) < s.maxBatch && idle < gatherGraceYields {
			more := s.drain(s.maxBatch - len(batch))
			if len(more) > 0 {
				batch = append(batch, more...)
				idle = 0
				continue
			}
			if int64(len(batch)) >= s.inflight.Load() {
				idle++
			}
			if !time.Now().Before(deadline) {
				break
			}
			runtime.Gosched()
		}
	}
	start := s.beginHold()
	s.commitGroup(batch)
	s.endHold(start)
	for _, w := range batch {
		close(w.done)
	}
	s.inflight.Add(-int64(len(batch)))
}

// commitGroup validates, logs and applies one group of commits, publishing
// at most one new version. Caller holds writeMu.
func (s *Store) commitGroup(batch []*commitWaiter) {
	base := s.cur.Load()
	b := newBuilder(base, s.dict)
	for _, w := range batch {
		s.prepareWaiter(b, w)
	}
	var groups [][]Op
	nOps := 0
	for _, w := range batch {
		if w.err == nil && len(w.eff) > 0 {
			groups = append(groups, w.eff)
			nOps += len(w.eff)
		}
	}
	if len(groups) > 0 && s.groupHook != nil {
		if err := s.groupHook(groups); err != nil {
			// The group could not be made durable: nothing is published and
			// every op in the group — including ones that individually
			// no-oped against speculative state — reports the failure.
			werr := fmt.Errorf("store: %w: %w", ErrCommitHook, err)
			for _, w := range batch {
				w.err = werr
				w.ns = nil
			}
			return
		}
	}
	if len(groups) > 0 {
		s.cur.Store(b.seal())
		s.batches.record(nOps)
		if s.mBatchSize != nil {
			s.mBatchSize.Observe(float64(nOps))
		}
	}
}

// prepareWaiter validates w's ops against the builder and applies them
// speculatively, recording per-op change counts and the effective
// (no-op-filtered) ops for the commit hook. A commit with an effective op is
// one generation, and each of its ops is stamped with the generation it was
// applied against. Any failure rolls the builder back to its pre-waiter
// state — rollback is O(1) because the builder's indexes are persistent
// values.
func (s *Store) prepareWaiter(b *builder, w *commitWaiter) {
	save := *b
	ns := make([]int, len(w.ops))
	var eff []Op
	for i := range w.ops {
		n, effOp, err := b.applyOp(w.ops[i])
		if err != nil {
			*b = save
			w.err = &BatchError{Index: i, Err: err}
			return
		}
		ns[i] = n
		if effOp.Kind != 0 {
			effOp.Gen = save.generation
			eff = append(eff, effOp)
		}
	}
	if len(eff) > 0 {
		b.generation++
	}
	w.ns, w.eff = ns, eff
}

// Add inserts t, reporting whether it was new. Invalid triples are rejected.
// On a store with a commit hook, a hook failure also reports false; use
// Apply when the error matters.
func (s *Store) Add(t rdf.Triple) bool {
	if !t.Valid() {
		return false
	}
	n, _ := s.Apply(Op{Kind: OpAdd, Triples: []rdf.Triple{t}})
	return n > 0
}

// AddAll inserts the given triples, returning how many were new.
func (s *Store) AddAll(ts []rdf.Triple) int {
	n, _ := s.Apply(Op{Kind: OpAdd, Triples: ts})
	return n
}

// AddGraph inserts every triple of g, returning how many were new.
func (s *Store) AddGraph(g *rdf.Graph) int { return s.AddAll(g.Triples()) }

// Remove deletes t, reporting whether it was present.
func (s *Store) Remove(t rdf.Triple) bool {
	n, _ := s.Apply(Op{Kind: OpRemove, Triples: []rdf.Triple{t}})
	return n > 0
}

// Replace swaps old for new in one commit, so concurrent readers never
// observe the intermediate "old removed, new not yet added" state. Returns
// false when old is absent (nothing is changed or logged).
func (s *Store) Replace(old, new rdf.Triple) (bool, error) {
	n, err := s.Apply(Op{Kind: OpReplace, Triples: []rdf.Triple{old, new}})
	return n > 0, err
}

// RemoveMatching deletes all triples matching the pattern (nil = wildcard)
// and returns how many were removed. The victims are materialized as a
// batch remove op so a commit hook sees the concrete triples.
func (s *Store) RemoveMatching(sub, pred, obj rdf.Term) int {
	victims := s.Match(sub, pred, obj)
	if len(victims) == 0 {
		return 0
	}
	n, _ := s.Apply(Op{Kind: OpRemove, Triples: victims})
	return n
}

// Clear removes every triple. Interned terms stay in the dictionary.
func (s *Store) Clear() {
	_, _ = s.Apply(Op{Kind: OpClear})
}

// Has reports whether t is in the store.
func (s *Store) Has(t rdf.Triple) bool { return s.View().Has(t) }

// HasIDs reports whether the fully-bound ID triple is in the store.
func (s *Store) HasIDs(sid, pid, oid ID) bool { return s.cur.Load().spo.has(sid, pid, oid) }

// Len returns the number of triples.
func (s *Store) Len() int { return s.cur.Load().size }

// Generation returns the number of commits since the empty store: one per
// commit that changed something, however many ops and triples it carried.
// Load installs it with the contents, so the number survives recovery and
// replication.
func (s *Store) Generation() uint64 { return s.cur.Load().generation }

// Match returns all triples matching the pattern; nil positions are
// wildcards. The result is a fresh slice safe for the caller to keep.
func (s *Store) Match(sub, pred, obj rdf.Term) []rdf.Triple { return s.View().Match(sub, pred, obj) }

// Count returns the number of triples matching the pattern without
// materializing them.
func (s *Store) Count(sub, pred, obj rdf.Term) int { return s.View().Count(sub, pred, obj) }

// EstimateIDs returns the exact number of triples matching the ID pattern
// (NoID = wildcard) in O(1), using the per-branch cardinality counts.
// This is the planner's selectivity source.
func (s *Store) EstimateIDs(sid, pid, oid ID) int { return s.cur.Load().estimate(sid, pid, oid) }

// ForEachMatch streams matching triples to fn against the current version;
// fn returning false stops iteration early. The iteration is lock-free: fn
// may block or even mutate the store (it will not see its own writes).
func (s *Store) ForEachMatch(sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	s.View().ForEachMatch(sub, pred, obj, fn)
}

// ForEachMatchIDs streams matching ID triples to fn against the current
// version; NoID positions are wildcards and fn returning false stops early.
// This is the evaluator's join primitive: no terms are materialized.
func (s *Store) ForEachMatchIDs(sid, pid, oid ID, fn func(sid, pid, oid ID) bool) {
	s.cur.Load().forEachMatch(sid, pid, oid, fn)
}

// Objects returns the distinct objects of triples (sub, pred, *).
func (s *Store) Objects(sub, pred rdf.Term) []rdf.Term { return s.View().Objects(sub, pred) }

// FirstObject returns one object of (sub, pred, *), if any. When several
// objects exist the choice is unspecified.
func (s *Store) FirstObject(sub, pred rdf.Term) (rdf.Term, bool) {
	return s.View().FirstObject(sub, pred)
}

// Subjects returns the distinct subjects of triples (*, pred, obj).
func (s *Store) Subjects(pred, obj rdf.Term) []rdf.Term { return s.View().Subjects(pred, obj) }

// SubjectsOfType returns all subjects with rdf:type class.
func (s *Store) SubjectsOfType(class rdf.Term) []rdf.Term {
	return s.Subjects(rdf.RDFType, class)
}

// Triples returns every triple (fresh slice).
func (s *Store) Triples() []rdf.Triple { return s.View().Triples() }

// Graph copies the whole store into an rdf.Graph.
func (s *Store) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, t := range s.Triples() {
		g.Add(t)
	}
	return g
}

// Snapshot returns an independent store pinned to the current version.
// Because versions are immutable and updates path-copy, this is O(1):
// both stores share structure until either mutates, and mutating one never
// affects the other. The dictionary is shared (it only grows), so IDs remain
// valid across the snapshot boundary. The snapshot has no commit hook.
func (s *Store) Snapshot() *Store {
	out := NewWithDict(s.dict)
	out.cur.Store(s.cur.Load())
	return out
}

// Stats summarizes the store for diagnostics and the experiment reports.
type Stats struct {
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
	DictTerms  int
}

// Stats computes summary statistics.
func (s *Store) Stats() Stats { return s.View().Stats() }

// String renders the store as sorted N-Triples (for tests and debugging).
func (s *Store) String() string {
	ts := s.Triples()
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// DescribeResource returns all triples with sub as subject, in a stable
// predicate-sorted order — used by the G-SACS result assembler.
func (s *Store) DescribeResource(sub rdf.Term) []rdf.Triple {
	return s.View().DescribeResource(sub)
}

// Validate checks internal index consistency; it is exercised by tests and
// the property-based suite. It returns an error describing the first
// inconsistency found.
func (s *Store) Validate() error { return s.View().Validate() }

// ---- builder ---------------------------------------------------------------

// builder accumulates the next version by path-copying from a base version.
// It is only ever touched by the commit leader under writeMu. Because its
// index fields are persistent values, copying the struct snapshots the whole
// builder state — prepareWaiter uses that for O(1) rollback.
type builder struct {
	dict       *Dict
	spo        tindex
	pos        tindex
	osp        tindex
	size       int
	generation uint64
}

func newBuilder(base *version, dict *Dict) *builder {
	return &builder{
		dict:       dict,
		spo:        base.spo,
		pos:        base.pos,
		osp:        base.osp,
		size:       base.size,
		generation: base.generation,
	}
}

// seal publishes the builder as an immutable version. The dictionary view is
// captured here — after every term of the version was interned — so the
// version resolves all of its own IDs.
func (b *builder) seal() *version {
	return &version{
		spo:        b.spo,
		pos:        b.pos,
		osp:        b.osp,
		size:       b.size,
		generation: b.generation,
		terms:      b.dict.View(),
	}
}

func (b *builder) lookupTriple(t rdf.Triple) ([3]ID, bool) {
	if t.Subject == nil || t.Predicate == nil || t.Object == nil {
		return [3]ID{}, false
	}
	sid, ok := b.dict.Lookup(t.Subject)
	if !ok {
		return [3]ID{}, false
	}
	pid, ok := b.dict.Lookup(t.Predicate)
	if !ok {
		return [3]ID{}, false
	}
	oid, ok := b.dict.Lookup(t.Object)
	if !ok {
		return [3]ID{}, false
	}
	return [3]ID{sid, pid, oid}, true
}

func (b *builder) has(t rdf.Triple) bool {
	ids, ok := b.lookupTriple(t)
	return ok && b.spo.has(ids[0], ids[1], ids[2])
}

func (b *builder) add(t rdf.Triple) bool {
	sid := b.dict.Intern(t.Subject)
	pid := b.dict.Intern(t.Predicate)
	oid := b.dict.Intern(t.Object)
	nspo, added := b.spo.with(sid, pid, oid)
	if !added {
		return false
	}
	b.spo = nspo
	b.pos, _ = b.pos.with(pid, oid, sid)
	b.osp, _ = b.osp.with(oid, sid, pid)
	b.size++
	return true
}

func (b *builder) removeIDs(sid, pid, oid ID) bool {
	nspo, removed := b.spo.without(sid, pid, oid)
	if !removed {
		return false
	}
	b.spo = nspo
	b.pos, _ = b.pos.without(pid, oid, sid)
	b.osp, _ = b.osp.without(oid, sid, pid)
	b.size--
	return true
}

func (b *builder) clear() {
	b.spo = tindex{}
	b.pos = tindex{}
	b.osp = tindex{}
	b.size = 0
}

// bulkMin is the batch size from which an add into an empty builder builds
// the indexes bottom-up (addBulk) instead of triple by triple.
const bulkMin = 64

// addBulk loads ts — valid triples, duplicates allowed — into an empty
// builder and returns how many distinct triples that was. A first load is the
// one case where nothing has to be shared with a previous version, so the
// three indexes are built in one pass each from the sorted ID triples; adding
// one by one would path-copy every trie once per triple, and for a store the
// size of a role view the garbage of that is most of the cost.
func (b *builder) addBulk(ts []rdf.Triple) int {
	ids := make([][3]ID, len(ts))
	for i, t := range ts {
		ids[i] = [3]ID{b.dict.Intern(t.Subject), b.dict.Intern(t.Predicate), b.dict.Intern(t.Object)}
	}
	sortIDs(ids)
	ids = slices.Compact(ids)
	n := len(ids)
	b.spo = tindexOf(ids)
	for i, t := range ids {
		ids[i] = [3]ID{t[1], t[2], t[0]}
	}
	sortIDs(ids)
	b.pos = tindexOf(ids)
	for i, t := range ids {
		ids[i] = [3]ID{t[1], t[2], t[0]}
	}
	sortIDs(ids)
	b.osp = tindexOf(ids)
	b.size = n
	return n
}

func sortIDs(ids [][3]ID) {
	slices.SortFunc(ids, func(x, y [3]ID) int { return slices.Compare(x[:], y[:]) })
}

// filter returns the subset of ts that would change the builder state:
// present triples when removing, valid absent ones when adding. The input
// slice is never mutated.
func (b *builder) filter(ts []rdf.Triple, present bool) []rdf.Triple {
	eff := make([]rdf.Triple, 0, len(ts))
	for _, t := range ts {
		ids, ok := b.lookupTriple(t)
		has := ok && b.spo.has(ids[0], ids[1], ids[2])
		if present && has {
			eff = append(eff, t)
		} else if !present && t.Valid() && !has {
			eff = append(eff, t)
		}
	}
	return eff
}

// applyOp validates op against the builder and applies it. It returns the
// number of triples changed and the effective op for the commit hook — Kind
// zero when the op was a no-op that must not be logged. Validation failures
// leave the builder untouched.
func (b *builder) applyOp(op Op) (int, Op, error) {
	var none Op
	switch op.Kind {
	case OpAdd:
		// Reduce the batch to triples that will actually land, so the commit
		// hook (and therefore the WAL) never records no-ops.
		op.Triples = b.filter(op.Triples, false)
		if len(op.Triples) == 0 {
			return 0, none, nil
		}
		if b.size == 0 && len(op.Triples) >= bulkMin {
			return b.addBulk(op.Triples), op, nil
		}
		n := 0
		for _, t := range op.Triples {
			if b.add(t) {
				n++
			}
		}
		return n, op, nil
	case OpRemove:
		op.Triples = b.filter(op.Triples, true)
		if len(op.Triples) == 0 {
			return 0, none, nil
		}
		n := 0
		for _, t := range op.Triples {
			if ids, ok := b.lookupTriple(t); ok && b.removeIDs(ids[0], ids[1], ids[2]) {
				n++
			}
		}
		return n, op, nil
	case OpReplace:
		if len(op.Triples) != 2 {
			return 0, none, fmt.Errorf("store: replace needs [old, new], got %d triples", len(op.Triples))
		}
		if !op.Triples[1].Valid() {
			return 0, none, fmt.Errorf("store: invalid replacement triple %v", op.Triples[1])
		}
		// Probe the old triple before logging: a replace of an absent triple
		// is a no-op (or, with MustExist, an error) and must not reach the
		// WAL.
		if !b.has(op.Triples[0]) {
			if op.MustExist {
				return 0, none, fmt.Errorf("store: %w: %v", ErrAbsent, op.Triples[0])
			}
			return 0, none, nil
		}
		ids, _ := b.lookupTriple(op.Triples[0])
		b.removeIDs(ids[0], ids[1], ids[2])
		b.add(op.Triples[1])
		return 1, op, nil
	case OpClear:
		if b.size == 0 {
			return 0, none, nil
		}
		b.clear()
		return 0, op, nil
	default:
		return 0, none, fmt.Errorf("store: unknown op kind %d", op.Kind)
	}
}
