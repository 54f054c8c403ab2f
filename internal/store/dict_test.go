package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// A Dict is a numbering over a term pool that dictionaries derived from it
// share. These tests hold every dictionary of a family to what a dictionary of
// its own would answer: its own IDs in its own first-intern order, and no word
// of the terms the pool holds for the others.

// TestDerivedDictKnowsOnlyItsOwnTerms: a term only the pool holds — interned
// by another dictionary of the family — neither resolves nor counts in a
// dictionary that has not interned it, in either direction, live or through a
// view.
func TestDerivedDictKnowsOnlyItsOwnTerms(t *testing.T) {
	a, b, c := rdf.IRI("http://example.org/a"), rdf.BlankNode("b"), rdf.NewLangString("c", "en")
	root := NewDict()
	root.Intern(a)
	root.Intern(b)
	view := NewDictOver(root)
	if id := view.Intern(b); id != 1 {
		t.Fatalf("the derived dictionary's first term got ID %d, want 1", id)
	}
	if id, ok := view.Lookup(a); ok {
		t.Fatalf("the derived dictionary resolves a pool-only term to %d", id)
	}
	if n, vn := view.Len(), view.View().Len(); n != 1 || vn != 1 {
		t.Fatalf("the derived dictionary counts %d terms (%d through a view), want 1", n, vn)
	}
	if got, vgot := view.Term(2), view.View().Term(2); got != nil || vgot != nil {
		t.Fatalf("the derived dictionary resolves ID 2 to %v (%v through a view), want nothing", got, vgot)
	}
	// A term the derived dictionary brings into the pool is the pool's, not
	// the root's.
	if id := view.Intern(c); id != 2 {
		t.Fatalf("the derived dictionary's second term got ID %d, want 2", id)
	}
	if id, ok := root.Lookup(c); ok || root.Len() != 2 || root.Term(3) != nil {
		t.Fatalf("the root resolves the derived dictionary's term to %d (found %v) and counts %d terms", id, ok, root.Len())
	}
	if id := view.Intern(a); id != 3 || view.Term(3) != a || view.Term(1) != b {
		t.Fatalf("the derived dictionary numbers a after b and c as %d; resolves 1 → %v, 3 → %v", id, view.Term(1), view.Term(3))
	}
	if id, _ := root.Lookup(a); id != 1 {
		t.Fatalf("the root's ID of a moved to %d", id)
	}
}

// TestDictsSharePoolUnderCommits: commits intern new terms into the data's
// dictionary while goroutines derive dictionaries from it, number a pinned
// version's terms in an order of their own, bring in terms of their own, look
// up both, and read DictViews pinned before the commits. Every pinned view
// keeps resolving as it did, every derived dictionary answers as a
// dictionary of its own would, and the data never counts a derived one's
// terms. CI runs it under the race detector.
func TestDictsSharePoolUnderCommits(t *testing.T) {
	s := New()
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, mvccTriple(i))
	}
	s.AddAll(ts)
	pinned := s.View()
	dv := pinned.DictView()
	want := make([]rdf.Term, dv.Len()+1)
	for id := ID(1); int(id) <= dv.Len(); id++ {
		want[id] = dv.Term(id)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				d := NewDictOver(s.Dict())
				order := rng.Perm(dv.Len())
				var mine []rdf.Term
				for k, i := range order[:200] {
					term := want[i+1]
					if k%10 == 0 {
						term = rdf.IRI(fmt.Sprintf("http://example.org/view%d/%d/%d", g, round, k))
					}
					if id := d.Intern(term); int(id) != len(mine)+1 {
						t.Errorf("goroutine %d: the %d-th term got ID %d", g, len(mine)+1, id)
						return
					}
					mine = append(mine, term)
				}
				v := d.View()
				for i, term := range mine {
					id := ID(i + 1)
					if got, ok := d.Lookup(term); !ok || got != id || v.Term(id) != term || d.Term(id) != term {
						t.Errorf("goroutine %d: %v is %d (found %v) and resolves to %v, want %d", g, term, got, ok, v.Term(id), id)
						return
					}
					if _, ok := s.LookupID(term); ok != (i%10 != 0) {
						t.Errorf("goroutine %d: the data's dictionary holds %v: %v", g, term, ok)
						return
					}
				}
				if d.Len() != len(mine) || v.Len() != len(mine) {
					t.Errorf("goroutine %d: %d terms counted, %d interned", g, d.Len(), len(mine))
					return
				}
				for id := ID(1); int(id) <= dv.Len(); id += 7 {
					if dv.Term(id) != want[id] || pinned.TermOf(id) != want[id] {
						t.Errorf("goroutine %d: pinned ID %d now resolves to %v, was %v", g, id, dv.Term(id), want[id])
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		s.Add(mvccTriple(10000 + i))
	}
	close(stop)
	wg.Wait()
	// The data is numbered as if it had the pool to itself.
	ref := New()
	ref.AddAll(ts)
	for i := 0; i < 1000; i++ {
		ref.Add(mvccTriple(10000 + i))
	}
	if s.DictLen() != ref.DictLen() {
		t.Fatalf("the data's dictionary counts %d terms, a dictionary of its own %d", s.DictLen(), ref.DictLen())
	}
	for id := ID(1); int(id) <= ref.DictLen(); id++ {
		if s.TermOf(id) != ref.TermOf(id) {
			t.Fatalf("the data's ID %d is %v, a dictionary of its own has %v", id, s.TermOf(id), ref.TermOf(id))
		}
	}
}

// dictTerms is FuzzDict's term universe: terms of every kind, some alike in
// their text and told apart only by kind, datatype or tag.
var dictTerms = []rdf.Term{
	rdf.IRI("http://example.org/x"), rdf.BlankNode("http://example.org/x"), rdf.NewString("http://example.org/x"),
	rdf.IRI("http://example.org/y"), rdf.BlankNode("y"), rdf.NewLangString("y", "en"), rdf.NewLangString("y", "de"),
	rdf.NewString("y"), rdf.NewInteger(1), rdf.Literal{Value: "1", Datatype: rdf.XSDString}, rdf.IRI(""),
	rdf.NewString(""), rdf.IRI("http://example.org/z"), rdf.BlankNode("z"), rdf.NewInteger(2), rdf.NewBoolean(true),
}

// FuzzDict: a random program of Intern, Lookup, Term and Len over a root
// dictionary and two derived from it (one from the root, one from the
// other), each checked against a map model of a dictionary of its own; a
// view taken halfway must keep resolving what it resolved.
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 6, 2, 1, 0, 4, 1, 7, 2, 9, 1})
	f.Add([]byte{3, 5, 0, 5, 6, 5, 1, 5, 4, 5, 7, 5, 2, 1, 5, 2, 8, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15,
		6, 15, 6, 14, 3, 13, 7, 0, 4, 15, 2, 16, 5, 2, 8, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		root := NewDict()
		a := NewDictOver(root)
		dicts := []*Dict{root, a, NewDictOver(a)}
		models := make([]map[rdf.Term]ID, len(dicts))
		terms := make([][]rdf.Term, len(dicts))
		for i := range models {
			models[i] = map[rdf.Term]ID{}
		}
		var views []DictView
		var viewTerms [][]rdf.Term
		for step := 0; len(prog) >= 2; step++ {
			op, arg := prog[0], prog[1]
			prog = prog[2:]
			k := int(op % 3)
			d, m := dicts[k], models[k]
			switch op / 3 % 3 {
			case 0:
				term := dictTerms[int(arg)%len(dictTerms)]
				want, ok := m[term]
				if !ok {
					terms[k] = append(terms[k], term)
					want = ID(len(terms[k]))
					m[term] = want
				}
				if got := d.Intern(term); got != want {
					t.Fatalf("step %d: dict %d interns %v as %d, want %d", step, k, term, got, want)
				}
			case 1:
				term := dictTerms[int(arg)%len(dictTerms)]
				want, wantOK := m[term]
				if got, ok := d.Lookup(term); got != want || ok != wantOK {
					t.Fatalf("step %d: dict %d looks up %v as %d (%v), want %d (%v)", step, k, term, got, ok, want, wantOK)
				}
			case 2:
				id := ID(arg % 20)
				var want rdf.Term
				if id != NoID && int(id) <= len(terms[k]) {
					want = terms[k][id-1]
				}
				if got := d.Term(id); got != want {
					t.Fatalf("step %d: dict %d resolves %d to %v, want %v", step, k, id, got, want)
				}
			}
			if d.Len() != len(terms[k]) {
				t.Fatalf("step %d: dict %d counts %d terms, want %d", step, k, d.Len(), len(terms[k]))
			}
			if step == 8 {
				for i, d := range dicts {
					views = append(views, d.View())
					viewTerms = append(viewTerms, append([]rdf.Term(nil), terms[i]...))
				}
			}
		}
		for i, v := range views {
			if v.Len() != len(viewTerms[i]) {
				t.Fatalf("a view of dict %d counts %d terms, held %d", i, v.Len(), len(viewTerms[i]))
			}
			for j, term := range viewTerms[i] {
				if got := v.Term(ID(j + 1)); got != term {
					t.Fatalf("a view of dict %d resolves %d to %v, resolved %v", i, j+1, got, term)
				}
			}
			if v.Term(ID(len(viewTerms[i])+1)) != nil {
				t.Fatalf("a view of dict %d resolves an ID interned after it", i)
			}
		}
	})
}
