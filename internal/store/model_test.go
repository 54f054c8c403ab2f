package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// model is the reference a store is checked against: a set of triples.
type model map[rdf.Triple]struct{}

// apply runs ops on a copy of m the way a commit runs them on the store: in
// order, all or nothing. It returns the next state, the per-op changed-triple
// counts, whether anything changed, and whether a MustExist replace missed
// (the whole commit then fails and the state is m).
func (m model) apply(ops []Op) (next model, ns []int, changed, failed bool) {
	next = maps.Clone(m)
	ns = make([]int, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAdd:
			for _, t := range op.Triples {
				if _, ok := next[t]; t.Valid() && !ok {
					next[t] = struct{}{}
					ns[i]++
				}
			}
		case OpRemove:
			for _, t := range op.Triples {
				if _, ok := next[t]; ok {
					delete(next, t)
					ns[i]++
				}
			}
		case OpReplace:
			if _, ok := next[op.Triples[0]]; !ok {
				if op.MustExist {
					return m, nil, false, true
				}
				continue
			}
			delete(next, op.Triples[0])
			next[op.Triples[1]] = struct{}{}
			ns[i] = 1
		case OpClear:
			if len(next) > 0 {
				clear(next)
				changed = true
			}
		}
		changed = changed || ns[i] > 0
	}
	return next, ns, changed, false
}

// triples lists m in N-Triples order.
func (m model) triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b rdf.Triple) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// lines renders triples as sorted N-Triples.
func lines(ts []rdf.Triple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	slices.Sort(out)
	return out
}

// checkEstimates compares EstimateIDs for every bound-position shape of each
// probe against the matches counted in want.
func checkEstimates(t *testing.T, what string, sv StoreView, want model, probes []rdf.Triple) {
	t.Helper()
	for _, p := range probes {
		ids := [3]ID{}
		for k, term := range []rdf.Term{p.Subject, p.Predicate, p.Object} {
			id, ok := sv.LookupID(term)
			if !ok {
				t.Fatalf("%s: probe term %v was never interned", what, term)
			}
			ids[k] = id
		}
		for mask := 0; mask < 8; mask++ {
			q := [3]ID{NoID, NoID, NoID}
			bound := [3]bool{}
			for k := range q {
				if mask&(1<<k) != 0 {
					q[k], bound[k] = ids[k], true
				}
			}
			n := 0
			for tr := range want {
				if (!bound[0] || tr.Subject == p.Subject) && (!bound[1] || tr.Predicate == p.Predicate) &&
					(!bound[2] || tr.Object == p.Object) {
					n++
				}
			}
			if got := sv.EstimateIDs(q[0], q[1], q[2]); got != n {
				t.Fatalf("%s: EstimateIDs for %v with positions %03b bound = %d, counted %d", what, p, mask, got, n)
			}
		}
	}
}

// TestStoreAgainstModel drives a store through random commits — adds,
// removes, replaces with and without MustExist, clears, single ops and
// multi-op batches — beside a map of triples, while four readers pin views
// and re-read them. After every commit: same contents, consistent indexes,
// exact EstimateIDs for every bound-position shape, earlier pinned views
// unchanged, and a generation equal to the number of commits that changed
// something (a no-op or a rolled-back batch moves nothing). Every 25 commits,
// the same triples loaded bottom-up at the same generation make a store
// indistinguishable from the incrementally built one.
func TestStoreAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var terms struct{ s, p, o []rdf.Term }
	for i := 0; i < 6; i++ {
		terms.s = append(terms.s, rdf.IRI(fmt.Sprintf("http://example.org/model/s%d", i)))
		terms.o = append(terms.o, rdf.IRI(fmt.Sprintf("http://example.org/model/s%d", i)), rdf.NewInteger(int64(i)))
	}
	for i := 0; i < 3; i++ {
		terms.p = append(terms.p, rdf.IRI(fmt.Sprintf("http://example.org/model/p%d", i)))
	}
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
	random := func() rdf.Triple { return rdf.T(pick(terms.s), pick(terms.p), pick(terms.o)) }

	s := New()
	for _, ts := range [][]rdf.Term{terms.s, terms.p, terms.o} {
		for _, term := range ts {
			s.Intern(term)
		}
	}
	m := model{}
	present := func() rdf.Triple {
		if ts := m.triples(); len(ts) > 0 {
			return ts[rng.Intn(len(ts))]
		}
		return random()
	}
	randomOp := func() Op {
		switch r := rng.Intn(100); {
		case r < 45:
			op := Op{Kind: OpAdd}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				op.Triples = append(op.Triples, random())
			}
			if rng.Intn(10) == 0 {
				op.Triples = append(op.Triples, rdf.T(rdf.NewString("a literal subject"), pick(terms.p), pick(terms.o)))
			}
			return op
		case r < 70:
			return Op{Kind: OpRemove, Triples: []rdf.Triple{present(), random()}}
		case r < 98:
			old := random()
			if rng.Intn(3) > 0 {
				old = present()
			}
			return Op{Kind: OpReplace, Triples: []rdf.Triple{old, random()}, MustExist: rng.Intn(3) == 0}
		default:
			return Op{Kind: OpClear}
		}
	}

	// Four readers pin a view, read it, let writers run, and read it again.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				gen, before := v.Generation(), lines(v.Triples())
				if err := v.Validate(); err != nil {
					t.Errorf("reader: pinned view at generation %d: %v", gen, err)
					return
				}
				if after := lines(v.Triples()); v.Generation() != gen || len(before) != v.Len() ||
					!slices.Equal(before, after) {
					t.Errorf("reader: pinned view at generation %d changed under writers", gen)
					return
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	type pinned struct {
		v    StoreView
		gen  uint64
		want []string
	}
	var pins []pinned
	commits := uint64(0)
	for step := 0; step < 400; step++ {
		ops := make([]Op, 1+rng.Intn(4))
		for i := range ops {
			ops[i] = randomOp()
		}
		next, wantNs, changed, failed := m.apply(ops)
		var ns []int
		var err error
		if len(ops) == 1 && rng.Intn(2) == 0 {
			var n int
			n, err = s.Apply(ops[0])
			ns = []int{n}
		} else {
			ns, err = s.ApplyBatch(ops)
		}
		what := fmt.Sprintf("step %d", step)
		switch {
		case failed && err == nil:
			t.Fatalf("%s: a commit with a missing MustExist replace succeeded", what)
		case failed:
		case err != nil:
			t.Fatalf("%s: %v", what, err)
		case !slices.Equal(ns, wantNs):
			t.Fatalf("%s: changed counts %v, model says %v", what, ns, wantNs)
		}
		m = next
		if changed && !failed {
			commits++
		}

		sv := s.View()
		if sv.Generation() != commits || s.GroupCommitStats().Groups != commits {
			t.Fatalf("%s: generation %d, %d groups published; %d commits changed something",
				what, sv.Generation(), s.GroupCommitStats().Groups, commits)
		}
		if got, want := lines(sv.Triples()), lines(m.triples()); !slices.Equal(got, want) {
			t.Fatalf("%s: contents differ from the model:\n got %v\nwant %v", what, got, want)
		}
		if err := sv.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		probes := []rdf.Triple{random(), random(), present()}
		checkEstimates(t, what, sv, m, probes)
		for _, p := range pins {
			if p.v.Generation() != p.gen || !slices.Equal(lines(p.v.Triples()), p.want) {
				t.Fatalf("%s: the view pinned at generation %d changed", what, p.gen)
			}
		}
		if len(pins) < 8 {
			pins = append(pins, pinned{sv, sv.Generation(), lines(sv.Triples())})
		} else if rng.Intn(4) == 0 {
			pins[rng.Intn(len(pins))] = pinned{sv, sv.Generation(), lines(sv.Triples())}
		}

		if step%25 == 24 {
			bulk := NewWithDict(s.Dict())
			bulk.Load(sv.Generation(), sv.Triples())
			bv := bulk.View()
			if err := bv.Validate(); err != nil {
				t.Fatalf("%s: bulk-built store: %v", what, err)
			}
			if bv.Generation() != sv.Generation() || bv.Stats() != sv.Stats() {
				t.Fatalf("%s: bulk-built generation %d, stats %+v; incremental %d, %+v",
					what, bv.Generation(), bv.Stats(), sv.Generation(), sv.Stats())
			}
			bv.ChangedSubjects(sv, func(id ID) bool {
				t.Fatalf("%s: bulk-built and incremental stores differ at subject %v", what, s.TermOf(id))
				return false
			})
			checkEstimates(t, what+" (bulk-built)", bv, m, probes)
		}
	}
	if commits < 200 {
		t.Errorf("only %d of 400 commits changed anything; the mix is too tame", commits)
	}
}

// TestLoadBesideWriters: a Load lands between commits, never inside one.
// Commits queued behind it apply to the loaded state, each one generation
// on top of the loaded generation; commits ahead of it are replaced.
func TestLoadBesideWriters(t *testing.T) {
	s := New()
	var loaded []rdf.Triple
	for i := 0; i < 100; i++ {
		loaded = append(loaded, mvccTriple(100000+i))
	}
	const writers, perWriter, gen = 4, 50, 1000
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				if _, err := s.Apply(Op{Kind: OpAdd, Triples: []rdf.Triple{mvccTriple(w*perWriter + i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(start)
	s.Load(gen, loaded)
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range loaded {
		if !s.Has(tr) {
			t.Fatalf("loaded triple %v missing", tr)
		}
	}
	after := s.Len() - len(loaded)
	if s.Generation() != gen+uint64(after) {
		t.Fatalf("generation %d with %d commits on top of the load at %d", s.Generation(), after, gen)
	}
}
