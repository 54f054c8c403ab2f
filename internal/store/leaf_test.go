package store

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// A third-level key that stands alone is stored inline in its parent entry;
// two or more are a set. These tests take leaves across that boundary in both
// directions, through every write path, and hold the index to a plain map.

// checkMatches compares ForEachMatchIDs for every bound-position shape of each
// probe with the triples of want that match it.
func checkMatches(t *testing.T, what string, sv StoreView, want model, probes []rdf.Triple) {
	t.Helper()
	for _, p := range probes {
		terms := [3]rdf.Term{p.Subject, p.Predicate, p.Object}
		ids := [3]ID{}
		for k, term := range terms {
			id, ok := sv.LookupID(term)
			if !ok {
				t.Fatalf("%s: probe term %v was never interned", what, term)
			}
			ids[k] = id
		}
		for mask := 0; mask < 8; mask++ {
			q := [3]ID{NoID, NoID, NoID}
			var pattern [3]rdf.Term
			for k := range q {
				if mask&(1<<k) != 0 {
					q[k], pattern[k] = ids[k], terms[k]
				}
			}
			var got, exp []string
			sv.ForEachMatchIDs(q[0], q[1], q[2], func(s, p, o ID) bool {
				got = append(got, rdf.T(sv.TermOf(s), sv.TermOf(p), sv.TermOf(o)).String())
				return true
			})
			for tr := range want {
				if (pattern[0] == nil || tr.Subject == pattern[0]) && (pattern[1] == nil || tr.Predicate == pattern[1]) &&
					(pattern[2] == nil || tr.Object == pattern[2]) {
					exp = append(exp, tr.String())
				}
			}
			slices.Sort(got)
			slices.Sort(exp)
			if !slices.Equal(got, exp) {
				t.Fatalf("%s: ForEachMatchIDs for %v with positions %03b bound:\n got  %v\n want %v", what, p, mask, got, exp)
			}
		}
	}
}

// TestLeafShapeTransitions takes one (s, p) through 1 → 2 → 1 → 0 objects by
// each write path — Add, ApplyBatch, Replace, Remove, AddAll — while a second
// subject shares its (p, o) and a second predicate its (o, s), so the POS and
// OSP leaves cross between inline and set too. After every step the store
// validates and answers every pattern as the model does. The version diff
// reports a lone object replaced by another, and does not report a subject
// taken from one object to two and back to the same one.
func TestLeafShapeTransitions(t *testing.T) {
	iri := func(n string) rdf.IRI { return rdf.IRI("http://example.org/leaf/" + n) }
	s, s2, p, q := iri("s"), iri("s2"), iri("p"), iri("q")
	o1, o2, o3 := iri("o1"), iri("o2"), iri("o3")
	st := New()
	m := model{}
	probes := []rdf.Triple{rdf.T(s, p, o1), rdf.T(s, p, o2), rdf.T(s, p, o3), rdf.T(s2, p, o1), rdf.T(s, q, o1)}
	for _, tr := range probes {
		st.Intern(tr.Subject)
		st.Intern(tr.Predicate)
		st.Intern(tr.Object)
	}
	check := func(what string, objects int) {
		t.Helper()
		if err := st.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := st.Count(s, p, nil); got != objects {
			t.Fatalf("%s: (s, p) has %d objects, want %d", what, got, objects)
		}
		checkEstimates(t, what, st.View(), m, probes)
		checkMatches(t, what, st.View(), m, probes)
	}
	commit := func(what string, objects int, ops ...Op) {
		t.Helper()
		next, _, _, failed := m.apply(ops)
		if failed {
			t.Fatalf("%s: the model refuses the commit", what)
		}
		if _, err := st.ApplyBatch(ops); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		m = next
		check(what, objects)
	}
	add := func(ts ...rdf.Triple) Op { return Op{Kind: OpAdd, Triples: ts} }
	remove := func(ts ...rdf.Triple) Op { return Op{Kind: OpRemove, Triples: ts} }
	changed := func(base StoreView) []string { return changedSubjects(st, base, st.View()) }

	commit("background", 0, add(rdf.T(s2, p, o1), rdf.T(s, q, o1)))

	st.Add(rdf.T(s, p, o1))
	m[rdf.T(s, p, o1)] = struct{}{}
	check("Add: 0 → 1", 1)
	one := st.View()

	commit("ApplyBatch: 1 → 2", 2, add(rdf.T(s, p, o2)))
	if ok, err := st.Replace(rdf.T(s, p, o2), rdf.T(s, p, o3)); !ok || err != nil {
		t.Fatalf("Replace within a set: %v %v", ok, err)
	}
	delete(m, rdf.T(s, p, o2))
	m[rdf.T(s, p, o3)] = struct{}{}
	check("Replace: 2 → 2", 2)
	st.Remove(rdf.T(s, p, o3))
	delete(m, rdf.T(s, p, o3))
	check("Remove: 2 → 1", 1)
	if got := changed(one); len(got) != 0 {
		t.Fatalf("1 → 2 → 1 back to the same object: diff reports %v", got)
	}
	if got := changedSubjects(st, st.View(), one); len(got) != 0 {
		t.Fatalf("1 → 2 → 1 back to the same object, diffed backwards: diff reports %v", got)
	}

	if ok, err := st.Replace(rdf.T(s, p, o1), rdf.T(s, p, o2)); !ok || err != nil {
		t.Fatalf("Replace of a lone object: %v %v", ok, err)
	}
	delete(m, rdf.T(s, p, o1))
	m[rdf.T(s, p, o2)] = struct{}{}
	check("Replace: 1 → 1", 1)
	for _, dir := range [][2]StoreView{{one, st.View()}, {st.View(), one}} {
		if got, want := changedSubjects(st, dir[0], dir[1]), []string{s.String()}; !slices.Equal(got, want) {
			t.Fatalf("a lone object replaced by another: diff reports %v, want %v", got, want)
		}
	}

	st.AddAll([]rdf.Triple{rdf.T(s, p, o1), rdf.T(s, p, o3)})
	m[rdf.T(s, p, o1)], m[rdf.T(s, p, o3)] = struct{}{}, struct{}{}
	check("AddAll: 1 → 3", 3)
	commit("ApplyBatch: 3 → 1", 1, remove(rdf.T(s, p, o2), rdf.T(s, p, o3)))
	commit("ApplyBatch: 1 → 2 → 1 in one commit", 1, add(rdf.T(s, p, o2)), remove(rdf.T(s, p, o1)))
	commit("ApplyBatch: 1 → 0", 0, remove(rdf.T(s, p, o2)))
	commit("background gone", 0, remove(rdf.T(s2, p, o1), rdf.T(s, q, o1)))
	if st.Len() != 0 {
		t.Fatalf("%d triples left", st.Len())
	}
}

// indexTriple decodes three program bytes into a key triple over 4 × 4 × 64
// keys, ID 0 among them: pairs gather several third keys, and third keys
// share the low slot bits, so leaves cross between inline and set and sets
// grow trie levels.
func indexTriple(b []byte) [3]ID {
	return [3]ID{ID(b[0] % 4), ID(b[1] % 4), ID(b[2] % 64)}
}

// FuzzIndexOps runs a byte program of single adds, single removes and sorted
// batch adds on one triple index — bases under a delta, folded whenever the
// delta is due — beside a map of key triples. After every instruction the
// index must agree with the map on has, card, card2, keys and the triples a
// full walk yields, in the order an index held wholly in pmaps walks them,
// and keep its shape; a version captured halfway must still hold what it
// held. The seeds fold: into a base, into a run, and across tombstones.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{2, 2, 1, 1, 0, 1, 1, 32, 1, 1, 1, 1, 1, 1, 1, 32, 0, 1, 1, 5, 1, 1, 1, 0})
	f.Add([]byte{2, 1, 0, 0, 7, 0, 0, 39, 1, 0, 0, 39, 2, 0, 3, 2, 9, 1, 0, 0, 7})
	f.Add([]byte{
		2, 15, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 1, 0, 1, 2, 0, 1, 3, 1, 0, 1, 1, 0, 2, 1, 1, 1,
		1, 1, 2, 2, 0, 1, 2, 0, 2, 2, 1, 1, 3, 0, 1, 3, 0, 2, 3, 1, 1, // 16 triples: a base
		0, 3, 3, 40, 0, 3, 3, 41, 0, 2, 2, 42, // adds: a run
		1, 0, 0, 1, 1, 1, 1, 1, 1, 3, 3, 40, 0, 0, 0, 1, // removes and a re-add: a new base
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		var ix, mid xindex
		ref := map[[3]ID]bool{}
		var midRef map[[3]ID]bool
	program:
		for step := 0; len(prog) > 0; step++ {
			op := prog[0]
			prog = prog[1:]
			switch op % 3 {
			case 0, 1:
				if len(prog) < 3 {
					break program
				}
				k := indexTriple(prog)
				prog = prog[3:]
				if has := ix.has(k[0], k[1], k[2]); has != ref[k] {
					t.Fatalf("step %d: has(%v) = %v, ref has it: %v", step, k, has, ref[k])
				}
				switch {
				case op%3 == 0 && !ref[k]:
					ix, ref[k] = ix.with([][3]ID{k}), true
				case op%3 == 1 && ref[k]:
					ix = ix.without(k[0], k[1], k[2])
					delete(ref, k)
				}
			case 2:
				if len(prog) < 1 || len(prog) < 1+3*(1+int(prog[0]%16)) {
					break program
				}
				n := 1 + int(prog[0]%16)
				prog = prog[1:]
				var batch [][3]ID
				for ; n > 0; n-- {
					if k := indexTriple(prog); !ref[k] {
						batch = append(batch, k)
					}
					prog = prog[3:]
				}
				sortIDs(batch)
				batch = slices.Compact(batch)
				for _, k := range batch {
					ref[k] = true
				}
				ix = ix.with(batch)
			}
			if ix.due() {
				ix = ix.fold(len(ref))
			}
			checkIndex(t, fmt.Sprintf("step %d", step), &ix, ref)
			if midRef == nil && len(prog) < 512 {
				mid, midRef = ix, maps.Clone(ref)
			}
		}
		if midRef != nil {
			checkIndex(t, "version captured halfway", &mid, midRef)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkIndex holds ix to ref: has for every present key and a few absent
// ones, card per first key, card2 per pair, keys, the order of every walk,
// and shape.
func checkIndex(t *testing.T, what string, ix *xindex, ref map[[3]ID]bool) {
	t.Helper()
	card, card2 := map[ID]int{}, map[[2]ID]int{}
	for k := range ref {
		if !ix.has(k[0], k[1], k[2]) {
			t.Fatalf("%s: has(%v) = false for a present key", what, k)
		}
		if ix.has(k[0], k[1], k[2]+64) {
			t.Fatalf("%s: has hit on absent third key under (%d, %d)", what, k[0], k[1])
		}
		card[k[0]]++
		card2[[2]ID{k[0], k[1]}]++
	}
	for a := ID(0); a < 4; a++ {
		if got := ix.card(a); got != card[a] {
			t.Fatalf("%s: card(%d) = %d, want %d", what, a, got, card[a])
		}
		for b := ID(0); b < 4; b++ {
			if got := ix.card2(a, b); got != card2[[2]ID{a, b}] {
				t.Fatalf("%s: card2(%d, %d) = %d, want %d", what, a, b, got, card2[[2]ID{a, b}])
			}
		}
	}
	if ix.keys != len(card) {
		t.Fatalf("%s: keys = %d, want %d", what, ix.keys, len(card))
	}
	checkOrder(t, what, ix, ref)
	if total, err := ix.shape(); err != nil || total != len(ref) {
		t.Fatalf("%s: shape: %d triples, %v", what, total, err)
	}
}
