package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// A version's indexes are bases of sorted key arrays under a delta of
// path-copied pmaps, and every answer's row order is the order a walk of them
// yields. These tests hold that order to the one a version held wholly in
// pmaps yields — a tindex built from the same triples is the oracle — and
// hold readers pinned before a fold to what they saw.

// TestPmapRangeIsTrieOrder: over random key sets, pmap.Range visits keys in
// ascending okey order, and idOf undoes okey.
func TestPmapRangeIsTrieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for set := 0; set < 200; set++ {
		var es []pentry[unit]
		seen := map[ID]bool{}
		for n := 1 + rng.Intn(2000); n > 0; n-- {
			k := ID(rng.Intn(1 << (5 + rng.Intn(27))))
			if !seen[k] {
				seen[k] = true
				es = append(es, pentry[unit]{key: k})
			}
		}
		m, _ := (*pmap[unit])(nil).withAll(slices.Clone(es))
		var got []ID
		m.Range(func(k ID, _ unit) bool {
			got = append(got, k)
			return true
		})
		want := make([]ID, 0, len(es))
		for _, e := range es {
			if idOf(okey(e.key)) != e.key {
				t.Fatalf("idOf(okey(%d)) = %d", e.key, idOf(okey(e.key)))
			}
			want = append(want, e.key)
		}
		slices.SortFunc(want, func(a, b ID) int { return cmp.Compare(okey(a), okey(b)) })
		if !slices.Equal(got, want) {
			t.Fatalf("set %d: Range order differs from okey order", set)
		}
	}
}

// oracleIndex is the index a version held wholly in pmaps: ts in one tindex.
func oracleIndex(ts map[[3]ID]bool) tindex {
	var ks [][3]ID
	for k := range ts {
		ks = append(ks, k)
	}
	sortIDs(ks)
	ix, _ := tindex{}.withAll(ks)
	return ix
}

// checkOrder holds every walk of x — the whole index, under each first key,
// under each pair — to the walk of the all-pmap oracle over the same triples,
// key for key and in the same order.
func checkOrder(t *testing.T, what string, x *xindex, ts map[[3]ID]bool) {
	t.Helper()
	oracle := oracleIndex(ts)
	var want, got [][3]ID
	oracle.m.Range(func(a ID, br *l2) bool {
		return br.m.Range(func(b ID, lf leaf) bool {
			return lf.each(func(c ID) bool {
				want = append(want, [3]ID{a, b, c})
				return true
			})
		})
	})
	x.each(func(a, b, c ID) bool {
		got = append(got, [3]ID{a, b, c})
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the full walk differs from the all-pmap order:\n got  %v\n want %v", what, got, want)
	}
	var firsts []ID
	x.firsts(func(a ID) bool {
		firsts = append(firsts, a)
		return true
	})
	var wantFirsts []ID
	oracle.m.Range(func(a ID, br *l2) bool {
		wantFirsts = append(wantFirsts, a)
		var under, wantUnder [][2]ID
		x.eachUnder(a, func(b, c ID) bool {
			under = append(under, [2]ID{b, c})
			return true
		})
		br.m.Range(func(b ID, lf leaf) bool {
			var pair, wantPair []ID
			x.eachPair(a, b, func(c ID) bool {
				pair = append(pair, c)
				return true
			})
			lf.each(func(c ID) bool {
				wantPair = append(wantPair, c)
				wantUnder = append(wantUnder, [2]ID{b, c})
				return true
			})
			if !slices.Equal(pair, wantPair) {
				t.Fatalf("%s: walk under (%d, %d) = %v, all-pmap order %v", what, a, b, pair, wantPair)
			}
			return true
		})
		if !slices.Equal(under, wantUnder) {
			t.Fatalf("%s: walk under %d = %v, all-pmap order %v", what, a, under, wantUnder)
		}
		return true
	})
	if !slices.Equal(firsts, wantFirsts) {
		t.Fatalf("%s: first keys %v, all-pmap order %v", what, firsts, wantFirsts)
	}
}

// TestMergedOrderIsThePmapOrder: random histories of batch adds, single adds
// and removes over an index that folds whenever its delta is due — so bases,
// runs, adds and tombstones all take part — walk in the all-pmap order at
// every step, and pass their shape check.
func TestMergedOrderIsThePmapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3838))
	folds := 0
	for hist := 0; hist < 60; hist++ {
		// Keys 1–40 at the first two levels share trie slots; third keys
		// reach deep into the key space now and then.
		key := func() [3]ID {
			c := ID(1 + rng.Intn(40))
			if rng.Intn(8) == 0 {
				c = ID(rng.Uint32() >> rng.Intn(32))
			}
			return [3]ID{ID(1 + rng.Intn(40)), ID(1 + rng.Intn(40)), c}
		}
		var x xindex
		ref := map[[3]ID]bool{}
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r < 3 || len(ref) == 0:
				var batch [][3]ID
				for n := 1 + rng.Intn(60); n > 0; n-- {
					if k := key(); !ref[k] {
						ref[k] = true
						batch = append(batch, k)
					}
				}
				sortIDs(batch)
				batch = slices.Compact(batch)
				x = x.with(batch)
			case r < 6:
				if k := key(); !ref[k] {
					ref[k] = true
					x = x.with([][3]ID{k})
				}
			default:
				for k := range ref {
					delete(ref, k)
					x = x.without(k[0], k[1], k[2])
					break
				}
			}
			if x.due() {
				x = x.fold(len(ref))
				folds++
			}
			what := fmt.Sprintf("history %d step %d", hist, step)
			if n, err := x.shape(); err != nil || n != len(ref) {
				t.Fatalf("%s: shape: %d triples of %d, %v", what, n, len(ref), err)
			}
			checkOrder(t, what, &x, ref)
		}
	}
	if folds < 100 {
		t.Fatalf("only %d folds over all histories", folds)
	}
}

// TestReadersPinnedAcrossCompaction: a view pinned before its store folds —
// into a run and into a new base, several times each — keeps its triples,
// its counts and its order while commits land, read by four goroutines at
// once.
func TestReadersPinnedAcrossCompaction(t *testing.T) {
	s := New()
	var ts []rdf.Triple
	for i := 0; i < 3000; i++ {
		ts = append(ts, mvccTriple(i))
	}
	s.AddAll(ts)
	pinned := s.View()
	type reading struct {
		order []ID
		stats Stats
		est   []int
	}
	probes := [][3]ID{{NoID, NoID, NoID}}
	for i := 0; i < 3000; i += 97 {
		id, _ := s.LookupID(mvccTriple(i).Subject)
		probes = append(probes, [3]ID{id, NoID, NoID})
	}
	read := func(v StoreView) reading {
		var r reading
		v.ForEachMatchIDs(NoID, NoID, NoID, func(a, b, c ID) bool {
			r.order = append(r.order, a, b, c)
			return true
		})
		r.stats = v.Stats()
		for _, p := range probes {
			r.est = append(r.est, v.EstimateIDs(p[0], p[1], p[2]))
			v.ForEachMatchIDs(p[0], NoID, NoID, func(a, b, c ID) bool {
				r.order = append(r.order, a, b, c)
				return true
			})
		}
		return r
	}
	want := read(pinned)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := read(pinned)
				if !slices.Equal(got.order, want.order) || got.stats != want.stats || !slices.Equal(got.est, want.est) {
					t.Error("the pinned view changed under commits and folds")
					return
				}
			}
		}()
	}

	runFolds, baseFolds := 0, 0
	last := s.View().ver().spo
	for i := 0; runFolds < 3 || baseFolds < 3; i++ {
		if i == 20000 {
			t.Fatalf("%d run folds and %d base folds after %d commits", runFolds, baseFolds, i)
		}
		// Adds alone fold into a run; once removes and renames come in,
		// a fold makes a new base.
		switch {
		case runFolds < 3:
			s.Add(mvccTriple(10000 + i))
		case i%3 == 0:
			s.Remove(mvccTriple(i % 3000))
		default:
			old := mvccTriple(i % 3000)
			_, _ = s.Replace(old, rdf.T(old.Subject, old.Predicate, rdf.NewString(fmt.Sprintf("r%d", i))))
		}
		cur := s.View().ver().spo
		switch {
		case cur.base != last.base:
			baseFolds++
		case cur.run != last.run:
			runFolds++
		}
		last = cur
	}
	close(stop)
	wg.Wait()
	if got := read(pinned); !slices.Equal(got.order, want.order) || got.stats != want.stats {
		t.Fatal("the pinned view changed after the folds")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
