package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// A multi-triple add is one persistent merge into each index. These tests
// hold it to the obvious definition — inserting the triples one at a time —
// on bases whose tries were shaped by removals as well as adds, and pin the
// two costs the merge must not raise: the untouched branches it shares and
// the allocations of a one-triple commit.

// mergeTriple draws from a universe of 400 subjects, 6 predicates and 150
// objects: enough keys that the top trie levels fill and split, few enough
// that a random batch hits present triples and repeats itself.
func mergeTriple(rng *rand.Rand) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://example.org/merge/s%d", rng.Intn(400))),
		rdf.IRI(fmt.Sprintf("http://example.org/merge/p%d", rng.Intn(6))),
		rdf.NewInteger(int64(rng.Intn(150))))
}

// checkUntouchedBranches fails unless every top-level key of before's delta
// (adds and tombstones) that no triple of added reaches (through key, the
// triple's position in the index's order) keeps its branch pointer in after.
// The two must share their bases: no fold lies between them.
func checkUntouchedBranches(t *testing.T, name string, before, after xindex, added [][3]ID, key int) {
	t.Helper()
	touched := map[ID]bool{}
	for _, ids := range added {
		touched[ids[key]] = true
	}
	for _, d := range [][2]tindex{{before.add, after.add}, {before.del, after.del}} {
		d[0].m.Range(func(a ID, br *l2) bool {
			if touched[a] {
				return true
			}
			if got, _ := d[1].m.Get(a); got != br {
				t.Fatalf("%s: untouched key %d lost its branch pointer", name, a)
			}
			return true
		})
	}
}

// TestBatchMergeEqualsInsertion: a random batch of 1–2,000 triples (1–20 in
// every other round), with duplicates and already-present triples in it,
// committed as one OpAdd into a random base built by adds and removes, yields
// what adding the same triples one at a time yields: the same triples, clean indexes, the same
// EstimateIDs for every bound-position shape, and no changed subject
// between the two. When the batch leaves the delta under its share of the
// bases, every delta branch the batch adds nothing under is the one before
// it, pointer for pointer, in all three indexes; some rounds must reach that
// check and some must fold.
func TestBatchMergeEqualsInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	shared, folded := 0, 0
	for round := 0; round < 30; round++ {
		what := fmt.Sprintf("round %d", round)
		s := New()
		m := model{}
		var base []rdf.Triple
		for n := rng.Intn(3000); n > 0; n-- {
			base = append(base, mergeTriple(rng))
		}
		s.AddAll(base)
		for _, tr := range base {
			m[tr] = struct{}{}
		}
		// Removals one at a time collapse subtrees back into leaves, so the
		// merge meets every node shape insertion and deletion leave behind.
		for _, tr := range base {
			if rng.Intn(2) == 0 {
				s.Remove(tr)
				delete(m, tr)
			}
		}
		for n := rng.Intn(50); n > 0; n-- {
			tr := mergeTriple(rng)
			s.Add(tr)
			m[tr] = struct{}{}
		}
		present := m.triples()

		// Every other batch is small enough to leave the delta under its
		// share of the bases, so that the pointer check below runs.
		size := 1 + rng.Intn(2000)
		if round%2 == 1 {
			size = 1 + rng.Intn(20)
		}
		var batch []rdf.Triple
		for n := size; n > 0; n-- {
			switch r := rng.Intn(10); {
			case r == 0 && len(batch) > 0:
				batch = append(batch, batch[rng.Intn(len(batch))])
			case r == 1 && len(present) > 0:
				batch = append(batch, present[rng.Intn(len(present))])
			default:
				batch = append(batch, mergeTriple(rng))
			}
		}

		before := s.View()
		one := s.Snapshot()
		n := s.AddAll(batch)
		after := s.View()
		fresh := 0
		var added [][3]ID
		for _, tr := range batch {
			if _, ok := m[tr]; !ok {
				m[tr] = struct{}{}
				fresh++
				added = append(added, [3]ID{s.Intern(tr.Subject), s.Intern(tr.Predicate), s.Intern(tr.Object)})
			}
			one.Add(tr)
		}

		if n != fresh || after.Len() != len(m) || after.Generation() != before.Generation()+1 {
			t.Fatalf("%s: AddAll = %d, len %d, generation %d → %d; model added %d, has %d",
				what, n, after.Len(), before.Generation(), after.Generation(), fresh, len(m))
		}
		if got, want := lines(after.Triples()), lines(m.triples()); !slices.Equal(got, want) {
			t.Fatalf("%s: merged contents differ from the model", what)
		}
		if err := after.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		probes := []rdf.Triple{mergeTriple(rng), mergeTriple(rng)}
		for i := 0; i < 6; i++ {
			probes = append(probes, batch[rng.Intn(len(batch))])
		}
		for _, p := range probes {
			for _, term := range []rdf.Term{p.Subject, p.Predicate, p.Object} {
				s.Intern(term)
			}
		}
		checkEstimates(t, what, after, m, probes)
		if after.Stats() != one.Stats() {
			t.Fatalf("%s: merged stats %+v, one at a time %+v", what, after.Stats(), one.Stats())
		}
		after.ChangedSubjects(one.View(), func(id ID) bool {
			t.Fatalf("%s: merged and one-at-a-time stores differ at subject %v", what, s.TermOf(id))
			return false
		})

		bv, av := before.ver(), after.ver()
		if bv.spo.base != av.spo.base || bv.spo.run != av.spo.run {
			folded++
			continue
		}
		shared++
		checkUntouchedBranches(t, what+" SPO", bv.spo, av.spo, added, 0)
		checkUntouchedBranches(t, what+" POS", bv.pos, av.pos, added, 1)
		checkUntouchedBranches(t, what+" OSP", bv.osp, av.osp, added, 2)
	}
	if shared == 0 || folded == 0 {
		t.Fatalf("%d rounds kept their bases, %d folded: want some of each", shared, folded)
	}
}

// oneTripleAdd measures a one-triple OpAdd commit into a 10,000-triple store:
// each op commits into a fresh O(1) snapshot of the same base, so every op
// costs the same whatever b.N is.
func oneTripleAdd(b *testing.B) {
	base := New()
	var ts []rdf.Triple
	for i := 0; i < 10000; i++ {
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://example.org/alloc/s%d", i%2500)),
			rdf.IRI(fmt.Sprintf("http://example.org/alloc/p%d", i/2500)), rdf.NewInteger(int64(i))))
	}
	base.AddAll(ts)
	ops := make([]Op, 256)
	for i := range ops {
		tr := rdf.T(rdf.IRI(fmt.Sprintf("http://example.org/alloc/s%d", i*7)),
			rdf.IRI("http://example.org/alloc/q"), rdf.NewInteger(int64(i*13)))
		for _, term := range []rdf.Term{tr.Subject, tr.Predicate, tr.Object} {
			base.Intern(term)
		}
		ops[i] = Op{Kind: OpAdd, Triples: []rdf.Triple{tr}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := base.Snapshot().Apply(ops[i%len(ops)]); n != 1 || err != nil {
			b.Fatal(n, err)
		}
	}
}

// TestOneTripleAddAllocations: the merge is no dearer than a path copy for
// the commit most writes are. 50 allocations per op is what the per-triple
// path-copying insert made, and the merge too while every third-level key
// had a set of its own; with a lone key inline in its parent the op makes 41
// (linux/amd64, go1.24, with and without -race).
func TestOneTripleAddAllocations(t *testing.T) {
	res := testing.Benchmark(oneTripleAdd)
	if a := res.AllocsPerOp(); a > 41 {
		t.Fatalf("one-triple add: %d allocations per op, want ≤ 41", a)
	}
}

func BenchmarkOneTripleAdd(b *testing.B) { oneTripleAdd(b) }

// FuzzBatchMerge: a random program (the version-diff interpreter) builds the
// base, then a random batch lands as one OpAdd. The result must equal the
// model, validate clean, and differ from the base in exactly the subjects
// that gained a triple.
func FuzzBatchMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 33, 1, 1, 3, 1, 1, 1}, []byte{1, 1, 2, 33, 1, 1, 65, 0, 3})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 1, 2, 3, 6, 1}, []byte{1, 2, 3, 1, 2, 3, 97, 1, 1})
	f.Add([]byte{8, 3, 0, 0, 0, 32, 0, 0, 1, 0, 0, 33, 1, 1, 3, 32, 0, 0, 3, 32, 0, 0}, []byte{0, 0, 1, 32, 0, 1, 2, 3, 3})
	// A base of 16, then a batch that folds into a run; and a base with a
	// tombstone, then a batch that folds into a new base.
	f.Add([]byte{8, 14, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0, 0, 14, 0, 0, 15, 0, 0}, []byte{30, 1, 1, 31, 1, 1, 32, 1, 2, 2, 1, 3})
	f.Add([]byte{8, 14, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0, 0, 14, 0, 0, 15, 0, 0, 3, 0, 0, 0}, []byte{33, 0, 1, 34, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog, raw []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		if len(raw) > 3*2000 {
			raw = raw[:3*2000]
		}
		s := New()
		runDiffProgram(s, prog, func() {})
		m := model{}
		for _, tr := range s.Triples() {
			m[tr] = struct{}{}
		}
		var batch []rdf.Triple
		for ; len(raw) >= 3; raw = raw[3:] {
			batch = append(batch, diffTriple(raw[0], raw[1], raw[2]))
		}
		before := s.View()
		next, wantNs, _, _ := m.apply([]Op{{Kind: OpAdd, Triples: batch}})
		n := s.AddAll(batch)
		if n != wantNs[0] {
			t.Fatalf("AddAll = %d, model says %d", n, wantNs[0])
		}
		if got, want := lines(s.Triples()), lines(next.triples()); !slices.Equal(got, want) {
			t.Fatalf("merged contents differ from the model:\n got %v\nwant %v", got, want)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := changedSubjects(s, before, s.View()), naiveChanged(before, s.View()); !slices.Equal(got, want) {
			t.Fatalf("changed subjects %v, want %v", got, want)
		}
	})
}
