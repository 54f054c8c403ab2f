package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
)

// The persistent HAMT is the foundation every MVCC guarantee rests on: a
// version is immutable exactly as long as With/Without never touch shared
// nodes. These tests drive pmap and tindex against plain-map references
// through long randomized histories and re-verify earlier snapshots after
// every later mutation — a use-after-publish bug shows up as a drifted
// snapshot.

func TestPmapAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var m *pmap[int]
	ref := map[ID]int{}

	type snap struct {
		m   *pmap[int]
		ref map[ID]int
	}
	var snaps []snap

	check := func(step int, m *pmap[int], ref map[ID]int) {
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
		}
		seen := 0
		m.Range(func(k ID, v int) bool {
			want, ok := ref[k]
			if !ok || want != v {
				t.Fatalf("step %d: Range yielded %d=%d, ref has %d,%v", step, k, v, want, ok)
			}
			seen++
			return true
		})
		if seen != len(ref) {
			t.Fatalf("step %d: Range yielded %d entries, want %d", step, seen, len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("step %d: Get(%d) = %d,%v, want %d,true", step, k, got, ok, want)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		// Keys cluster in a small space so collisions, overwrites and removes
		// of absent keys all happen; a few high keys exercise deep branches.
		key := ID(rng.Intn(256))
		if rng.Intn(16) == 0 {
			key = ID(rng.Uint32())
		}
		switch rng.Intn(3) {
		case 0, 1:
			val := rng.Intn(1000)
			_, hadRef := ref[key]
			next, added := m.With(key, val)
			if added == hadRef {
				t.Fatalf("step %d: With(%d) added=%v, ref had=%v", step, key, added, hadRef)
			}
			m = next
			ref[key] = val
		case 2:
			_, hadRef := ref[key]
			next, removed := m.Without(key)
			if removed != hadRef {
				t.Fatalf("step %d: Without(%d) removed=%v, ref had=%v", step, key, removed, hadRef)
			}
			m = next
			delete(ref, key)
		}
		if step%500 == 0 {
			refCopy := make(map[ID]int, len(ref))
			for k, v := range ref {
				refCopy[k] = v
			}
			snaps = append(snaps, snap{m, refCopy})
		}
	}
	check(4000, m, ref)

	// Persistence: every snapshot must still agree with the reference map it
	// was taken against, untouched by thousands of later mutations.
	for i, s := range snaps {
		check(i, s.m, s.ref)
	}
}

func TestPmapAbsentKeyLookups(t *testing.T) {
	var m *pmap[string]
	if _, ok := m.Get(7); ok {
		t.Error("Get on nil pmap reported a hit")
	}
	if next, removed := m.Without(7); removed || next.Len() != 0 {
		t.Error("Without on nil pmap claimed a removal")
	}
	m, _ = m.With(7, "a")
	if _, ok := m.Get(8); ok {
		t.Error("Get of absent sibling key reported a hit")
	}
	if next, added := m.With(7, "b"); added || next.Len() != 1 {
		t.Error("overwrite of existing key reported as insertion")
	}
	if got, _ := m.Get(7); got != "a" {
		t.Error("overwrite mutated the original map")
	}
}

func TestTindexAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ix tindex
	type key [3]ID
	ref := map[key]bool{}
	var snaps []struct {
		ix  tindex
		ref map[key]bool
	}

	check := func(step int, ix tindex, ref map[key]bool) {
		card := map[ID]int{}
		card2 := map[[2]ID]int{}
		firsts := map[ID]bool{}
		for k := range ref {
			if !ix.has(k[0], k[1], k[2]) {
				t.Fatalf("step %d: has(%v) = false for present key", step, k)
			}
			card[k[0]]++
			card2[[2]ID{k[0], k[1]}]++
			firsts[k[0]] = true
		}
		for a, want := range card {
			if got := ix.card(a); got != want {
				t.Fatalf("step %d: card(%d) = %d, want %d", step, a, got, want)
			}
		}
		for ab, want := range card2 {
			if got := ix.card2(ab[0], ab[1]); got != want {
				t.Fatalf("step %d: card2(%v) = %d, want %d", step, ab, got, want)
			}
		}
		if got := ix.keys(); got != len(firsts) {
			t.Fatalf("step %d: keys() = %d, want %d", step, got, len(firsts))
		}
	}

	for step := 0; step < 3000; step++ {
		k := key{ID(rng.Intn(16)), ID(rng.Intn(16)), ID(rng.Intn(32))}
		if rng.Intn(2) == 0 {
			next, added := ix.with(k[0], k[1], k[2])
			if added == ref[k] {
				t.Fatalf("step %d: with(%v) added=%v, ref had=%v", step, k, added, ref[k])
			}
			ix = next
			ref[k] = true
		} else {
			next, removed := ix.without(k[0], k[1], k[2])
			if removed != ref[k] {
				t.Fatalf("step %d: without(%v) removed=%v, ref had=%v", step, k, removed, ref[k])
			}
			ix = next
			delete(ref, k)
		}
		if ix.has(k[0], k[1], ID(999)) {
			t.Fatalf("step %d: has hit on absent third key", step)
		}
		if step%500 == 0 {
			refCopy := make(map[key]bool, len(ref))
			for kk := range ref {
				refCopy[kk] = true
			}
			snaps = append(snaps, struct {
				ix  tindex
				ref map[key]bool
			}{ix, refCopy})
		}
	}
	check(3000, ix, ref)
	for i, s := range snaps {
		check(i, s.ix, s.ref)
	}
}

// TestBulkLoadMatchesIncremental: a first load big enough to take the
// bottom-up path (addBulk) yields the store adding the same triples one by
// one yields — same triples, same counters, consistent indexes — and the two
// are structurally compatible: the version diff between a bulk-built version
// and its incrementally edited successor names exactly the edited subjects.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		n := bulkMin + rng.Intn(3000)
		var batch []rdf.Triple
		for i := 0; i < n; i++ {
			batch = append(batch, rdf.T(
				rdf.IRI(fmt.Sprintf("http://example.org/bulk/s%d", rng.Intn(n/3+1))),
				rdf.IRI(fmt.Sprintf("http://example.org/bulk/p%d", rng.Intn(7))),
				rdf.NewInteger(int64(rng.Intn(50)))))
		}
		batch = append(batch, batch[0], rdf.Triple{}) // a duplicate and an invalid triple

		bulk, one := New(), New()
		added := bulk.AddAll(batch)
		for _, tr := range batch {
			one.Add(tr)
		}
		if err := bulk.Validate(); err != nil {
			t.Fatalf("round %d: bulk-built store: %v", round, err)
		}
		// One commit is one generation, however many triples it lands.
		if added != one.Len() || bulk.Len() != one.Len() || bulk.Generation() != 1 || one.Generation() != uint64(one.Len()) {
			t.Fatalf("round %d: bulk added %d, len %d, gen %d; one by one len %d, gen %d",
				round, added, bulk.Len(), bulk.Generation(), one.Len(), one.Generation())
		}
		if bulk.String() != one.String() {
			t.Fatalf("round %d: contents differ", round)
		}
		if bs, os := bulk.Stats(), one.Stats(); bs.Subjects != os.Subjects || bs.Predicates != os.Predicates || bs.Objects != os.Objects {
			t.Fatalf("round %d: stats %+v vs %+v", round, bs, os)
		}
		for _, tr := range batch[:20] {
			s, p, o := bulk.Intern(tr.Subject), bulk.Intern(tr.Predicate), bulk.Intern(tr.Object)
			if !bulk.HasIDs(s, p, o) || bulk.EstimateIDs(s, NoID, NoID) != one.Count(tr.Subject, nil, nil) ||
				bulk.EstimateIDs(NoID, p, NoID) != one.Count(nil, tr.Predicate, nil) ||
				bulk.EstimateIDs(NoID, NoID, o) != one.Count(nil, nil, tr.Object) {
				t.Fatalf("round %d: lookups and cardinalities for %v disagree", round, tr)
			}
		}

		base := bulk.View()
		bulk.Remove(batch[1])
		bulk.Add(rdf.T(batch[2].Subject, rdf.IRI("http://example.org/bulk/extra"), rdf.NewInteger(1)))
		want := map[string]bool{batch[1].Subject.String(): true, batch[2].Subject.String(): true}
		bulk.View().ChangedSubjects(base, func(id ID) bool {
			s := bulk.TermOf(id).String()
			if !want[s] {
				t.Fatalf("round %d: diff names untouched subject %s", round, s)
			}
			delete(want, s)
			return true
		})
		if len(want) != 0 {
			t.Fatalf("round %d: diff missed %v", round, want)
		}
		if err := bulk.Validate(); err != nil {
			t.Fatalf("round %d: after edits: %v", round, err)
		}
	}
}
