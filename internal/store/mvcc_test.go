package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
)

// Tests for the MVCC + group-commit contract: atomic batches move the store
// by exactly one generation, any failure leaves it byte-for-byte untouched,
// pinned views stay frozen while writers churn, and concurrent commits fuse
// into groups so a durable hook runs far fewer times than there are ops.

func mvccTriple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://example.org/mvcc/s%d", i)),
		rdf.IRI("http://example.org/mvcc/p"),
		rdf.NewString(fmt.Sprintf("v%d", i)),
	)
}

func TestApplyBatchSingleGeneration(t *testing.T) {
	s := New()
	s.Add(mvccTriple(0))
	gen, groups := s.Generation(), s.GroupCommitStats().Groups

	ns, err := s.ApplyBatch([]Op{
		{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(1), mvccTriple(2)}},
		{Kind: OpRemove, Triples: []rdf.Triple{mvccTriple(0)}},
		{Kind: OpReplace, Triples: []rdf.Triple{mvccTriple(1), mvccTriple(3)}},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if want := []int{2, 1, 1}; len(ns) != 3 || ns[0] != want[0] || ns[1] != want[1] || ns[2] != want[2] {
		t.Errorf("changed counts = %v, want %v", ns, want)
	}
	if got := s.Generation(); got != gen+1 {
		t.Errorf("generation advanced %d -> %d, want exactly one bump", gen, got)
	}
	if got := s.GroupCommitStats().Groups; got != groups+1 {
		t.Errorf("published groups %d -> %d, want exactly one publish", groups, got)
	}
	if s.Has(mvccTriple(0)) || s.Has(mvccTriple(1)) || !s.Has(mvccTriple(2)) || !s.Has(mvccTriple(3)) {
		t.Errorf("batch applied wrong state: %v", s.Triples())
	}
}

func TestApplyBatchMustExistRollsBackWhole(t *testing.T) {
	s := New()
	s.Add(mvccTriple(0))
	gen, size := s.Generation(), s.Len()

	ns, err := s.ApplyBatch([]Op{
		{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(1)}},
		{Kind: OpReplace, Triples: []rdf.Triple{mvccTriple(8), mvccTriple(9)}, MustExist: true},
	})
	if !errors.Is(err, ErrAbsent) {
		t.Fatalf("err = %v, want ErrAbsent", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("err = %v, want BatchError at index 1", err)
	}
	if ns != nil {
		t.Errorf("failed batch returned counts %v", ns)
	}
	if s.Generation() != gen || s.Len() != size || s.Has(mvccTriple(1)) {
		t.Errorf("failed batch leaked state: gen %d->%d, len %d->%d",
			gen, s.Generation(), size, s.Len())
	}
}

func TestGroupHookErrorFailsEveryOp(t *testing.T) {
	s := New()
	s.Add(mvccTriple(0))
	gen := s.Generation()
	boom := errors.New("disk full")
	s.SetGroupCommitHook(func([][]Op) error { return boom })

	if _, err := s.Apply(Op{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(1)}}); !errors.Is(err, ErrCommitHook) || !errors.Is(err, boom) {
		t.Fatalf("Apply err = %v, want ErrCommitHook wrapping the hook error", err)
	}
	if _, err := s.ApplyBatch([]Op{{Kind: OpRemove, Triples: []rdf.Triple{mvccTriple(0)}}}); !errors.Is(err, ErrCommitHook) {
		t.Fatalf("ApplyBatch err = %v, want ErrCommitHook", err)
	}
	if s.Generation() != gen || s.Has(mvccTriple(1)) || !s.Has(mvccTriple(0)) {
		t.Error("hook-refused mutations leaked into the published version")
	}
}

// TestReadersNeverBlockOnCommitHook pins the headline MVCC property: a writer
// parked inside a slow commit hook (an fsync, say) must not delay readers,
// because reads touch only the last published version.
func TestReadersNeverBlockOnCommitHook(t *testing.T) {
	s := New()
	s.Add(mvccTriple(0))
	entered := make(chan struct{})
	release := make(chan struct{})
	s.SetGroupCommitHook(func([][]Op) error {
		close(entered)
		<-release
		return nil
	})

	done := make(chan struct{})
	go func() {
		s.Apply(Op{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(1)}})
		close(done)
	}()
	<-entered

	// The writer now holds the commit lock inside the hook. Every read path
	// must still complete promptly against the old version.
	readDone := make(chan struct{})
	go func() {
		v := s.View()
		if !v.Has(mvccTriple(0)) || v.Has(mvccTriple(1)) {
			t.Error("reader saw unpublished state")
		}
		if s.Len() != 1 || len(s.Match(nil, nil, nil)) != 1 {
			t.Error("read path saw unpublished state")
		}
		s.Snapshot()
		close(readDone)
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked behind a writer parked in the commit hook")
	}
	close(release)
	<-done
	if !s.Has(mvccTriple(1)) {
		t.Error("write was lost after hook release")
	}
}

// TestGroupCommitFusesConcurrentWriters: with a hook slow enough that a queue
// forms, concurrent single-op writers must be committed in groups — the hook
// runs per group, so its call count stays well below the op count.
func TestGroupCommitFusesConcurrentWriters(t *testing.T) {
	s := New()
	var hookCalls, hookOps atomic.Int64
	s.SetGroupCommitHook(func(groups [][]Op) error {
		hookCalls.Add(1)
		for _, g := range groups {
			hookOps.Add(int64(len(g)))
		}
		time.Sleep(200 * time.Microsecond) // a stand-in fsync
		return nil
	})

	const writers, perWriter = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Apply(Op{Kind: OpAdd,
					Triples: []rdf.Triple{mvccTriple(w*perWriter + i)}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const total = writers * perWriter
	if s.Len() != total {
		t.Fatalf("store holds %d triples, want %d", s.Len(), total)
	}
	if got := hookOps.Load(); got != total {
		t.Errorf("hook saw %d ops, want %d", got, total)
	}
	if calls := hookCalls.Load(); calls >= total {
		t.Errorf("hook ran %d times for %d ops: no group formed", calls, total)
	}
	st := s.GroupCommitStats()
	if st.Ops != total || st.Groups != uint64(hookCalls.Load()) {
		t.Errorf("GroupCommitStats = %+v, want ops=%d groups=%d", st, total, hookCalls.Load())
	}
	if st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d, want >= 2 under %d concurrent writers", st.MaxBatch, writers)
	}
	var histSum uint64
	for _, c := range st.Hist {
		histSum += c
	}
	if histSum != st.Groups {
		t.Errorf("histogram sums to %d groups, want %d", histSum, st.Groups)
	}
}

// TestMVCCStress is the -race workhorse: pinned views must stay internally
// consistent and frozen while writers add, remove and batch concurrently.
func TestMVCCStress(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Add(mvccTriple(i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := mvccTriple(64 + w*1000 + i%97)
				if i%2 == 0 {
					s.Apply(Op{Kind: OpAdd, Triples: []rdf.Triple{tr}})
				} else {
					s.Apply(Op{Kind: OpRemove, Triples: []rdf.Triple{tr}})
				}
				if i%17 == 0 {
					s.ApplyBatch([]Op{
						{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(5000 + w)}},
						{Kind: OpRemove, Triples: []rdf.Triple{mvccTriple(5000 + w)}},
					})
				}
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		v := s.View()
		n := v.Len()
		// The 64 seed triples are never touched by the writers; every pinned
		// view must contain all of them.
		for i := 0; i < 64; i += 7 {
			if !v.Has(mvccTriple(i)) {
				t.Fatal("pinned view lost a stable triple")
			}
		}
		if got := len(v.Triples()); got != n {
			t.Fatalf("view Len() = %d but materialized %d triples: torn read", n, got)
		}
		if v.Len() != n {
			t.Fatal("pinned view changed size under concurrent writers")
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatalf("final state inconsistent: %v", err)
	}
}

// TestDerivedIsBuiltOncePerVersion: a structure derived from a version is
// built by one of its concurrent first users, seen by all of them and by
// every later one, and belongs to that version alone.
func TestDerivedIsBuiltOncePerVersion(t *testing.T) {
	s := New()
	s.Add(rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/p"), rdf.IRI("http://e/b")))
	v1 := s.View()
	if _, ok := v1.Peek(); ok {
		t.Fatal("Peek found a structure nobody built")
	}
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := v1.Derived(func() any {
				builds.Add(1)
				return v1.Len()
			})
			if got != 1 {
				t.Errorf("Derived = %v, want 1", got)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("built %d times, want once", n)
	}
	if got, ok := s.Snapshot().View().Peek(); !ok || got != 1 {
		t.Errorf("a snapshot of the version: Peek = %v, %v; want the version's structure", got, ok)
	}
	s.Add(rdf.T(rdf.IRI("http://e/b"), rdf.IRI("http://e/p"), rdf.IRI("http://e/c")))
	if _, ok := s.View().Peek(); ok {
		t.Error("the next version inherited the structure")
	}
	if got, ok := v1.Peek(); !ok || got != 1 {
		t.Errorf("the old version lost its structure: %v, %v", got, ok)
	}
}

// TestRepeatedTripleIsJournaledOnce: a triple stated twice in one op reaches
// the commit hook — the WAL — once, for an add and for a remove, whether or
// not the op's other triples change anything.
func TestRepeatedTripleIsJournaledOnce(t *testing.T) {
	s := New()
	var seen [][]rdf.Triple
	s.SetGroupCommitHook(func(groups [][]Op) error {
		for _, g := range groups {
			for _, op := range g {
				seen = append(seen, op.Triples)
			}
		}
		return nil
	})
	a, b := mvccTriple(1), mvccTriple(2)
	s.Add(b)
	for _, step := range []struct {
		op   Op
		want []rdf.Triple
	}{
		{Op{Kind: OpAdd, Triples: []rdf.Triple{a, a}}, []rdf.Triple{a}},
		{Op{Kind: OpRemove, Triples: []rdf.Triple{a, b, a, b}}, []rdf.Triple{a, b}},
		{Op{Kind: OpAdd, Triples: []rdf.Triple{b, a, b, a}}, []rdf.Triple{b, a}},
	} {
		seen = nil
		if n, err := s.Apply(step.op); err != nil || n != len(step.want) {
			t.Fatalf("%v %v: changed %d, %v; want %d", step.op.Kind, step.op.Triples, n, err, len(step.want))
		}
		if len(seen) != 1 || !slices.Equal(seen[0], step.want) {
			t.Errorf("%v %v: the hook saw %v; want %v", step.op.Kind, step.op.Triples, seen, step.want)
		}
	}
}
