package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// The version diff is checked against the obvious definition: run a random
// op sequence, pin a view before and after some of its steps, and compare
// ChangedSubjects with "for every subject in either view, are the two sets
// of (predicate, object) pairs equal?". The op sequence is a byte program so
// the fuzz target and the seeded model test share one interpreter.

func diffTerm(kind string, n byte) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("http://example.org/diff/%s%d", kind, n))
}

// diffSubjects is enough subjects that several share each slot of the
// top-level trie node, so leaves turn into subtrees and back as they come and
// go.
const diffSubjects = 64

// diffTriple draws a triple from a small universe — 64 subjects, 2
// predicates, 4 objects — so removes, replaces and re-adds hit existing
// triples often and subjects empty out and come back.
func diffTriple(a, b, c byte) rdf.Triple {
	return rdf.T(diffTerm("s", a%diffSubjects), diffTerm("p", b%2), diffTerm("o", c%4))
}

// runDiffProgram interprets prog against s: each instruction is an opcode
// byte followed by its operand bytes; a truncated instruction ends the run.
// After every instruction it calls pin.
func runDiffProgram(s *Store, prog []byte, pin func()) {
	next := func(n int) []byte {
		if len(prog) < n {
			prog = nil
			return nil
		}
		out := prog[:n]
		prog = prog[n:]
		return out
	}
	for len(prog) > 0 {
		op := next(1)[0]
		switch op % 9 {
		case 0, 1, 2: // add (most frequent: the store has to fill up)
			if a := next(3); a != nil {
				s.Add(diffTriple(a[0], a[1], a[2]))
			}
		case 3: // remove
			if a := next(3); a != nil {
				s.Remove(diffTriple(a[0], a[1], a[2]))
			}
		case 4: // replace
			if a := next(6); a != nil {
				_, _ = s.Replace(diffTriple(a[0], a[1], a[2]), diffTriple(a[3], a[4], a[5]))
			}
		case 5: // atomic batch: add two, remove one
			if a := next(9); a != nil {
				_, _ = s.ApplyBatch([]Op{
					{Kind: OpAdd, Triples: []rdf.Triple{diffTriple(a[0], a[1], a[2]), diffTriple(a[3], a[4], a[5])}},
					{Kind: OpRemove, Triples: []rdf.Triple{diffTriple(a[6], a[7], a[8])}},
				})
			}
		case 6: // drop a whole subject
			if a := next(1); a != nil {
				s.RemoveMatching(diffTerm("s", a[0]%diffSubjects), nil, nil)
			}
		case 7: // clear, rarely: it makes every later diff total
			if a := next(1); a != nil && a[0]%8 == 0 {
				s.Clear()
			}
		case 8: // add 2–16 triples in one commit: one merge per index
			if a := next(1); a != nil {
				if b := next(3 * (2 + int(a[0]%15))); b != nil {
					var batch []rdf.Triple
					for ; len(b) > 0; b = b[3:] {
						batch = append(batch, diffTriple(b[0], b[1], b[2]))
					}
					s.AddAll(batch)
				}
			}
		}
		pin()
	}
}

// naiveChanged is the oracle: subjects whose sorted triple lists differ.
func naiveChanged(base, cur StoreView) []string {
	bySubject := func(sv StoreView) map[string][]string {
		m := map[string][]string{}
		for _, t := range sv.Triples() {
			k := t.Subject.String()
			m[k] = append(m[k], t.String())
		}
		for _, ts := range m {
			sort.Strings(ts)
		}
		return m
	}
	a, b := bySubject(base), bySubject(cur)
	var out []string
	for s, ts := range a {
		if fmt.Sprint(ts) != fmt.Sprint(b[s]) {
			out = append(out, s)
		}
	}
	for s := range b {
		if _, ok := a[s]; !ok {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// changedSubjects resolves IDs through the store, not through a view: when
// the diff runs newest-to-oldest the older view's dictionary does not know the
// subjects only the newer one has.
func changedSubjects(s *Store, base, cur StoreView) []string {
	var out []string
	cur.ChangedSubjects(base, func(id ID) bool {
		out = append(out, s.TermOf(id).String())
		return true
	})
	sort.Strings(out)
	return out
}

// checkDiffProgram runs prog and compares the diff with the oracle between
// every pair of pinned views taken `stride` instructions apart, in both
// directions, plus first-to-last.
func checkDiffProgram(t *testing.T, prog []byte, stride int) {
	t.Helper()
	s := New()
	views := []StoreView{s.View()}
	runDiffProgram(s, prog, func() { views = append(views, s.View()) })
	check := func(i, j int) {
		got, want := changedSubjects(s, views[i], views[j]), naiveChanged(views[i], views[j])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("views %d→%d of program %x:\n got  %v\n want %v", i, j, prog, got, want)
		}
		seen := map[string]bool{}
		for _, s := range got {
			if seen[s] {
				t.Fatalf("views %d→%d: subject %s reported twice", i, j, s)
			}
			seen[s] = true
		}
	}
	for i := 0; i+stride < len(views); i++ {
		check(i, i+stride)
		check(i+stride, i)
	}
	check(0, len(views)-1)
}

func TestChangedSubjectsAgainstNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20080407))
	for seq := 0; seq < 200; seq++ {
		prog := make([]byte, 20+rng.Intn(800))
		rng.Read(prog)
		checkDiffProgram(t, prog, 1+rng.Intn(12))
	}
}

// TestChangedSubjectsPrunesSharedStructure pins the cost claim: between two
// versions one commit apart on a large store the walk visits the changed
// subject and nothing else, so fn is called exactly once and a rewrite to
// identical content is not reported at all.
func TestChangedSubjectsPrunesSharedStructure(t *testing.T) {
	s := New()
	var ts []rdf.Triple
	for i := 0; i < 5000; i++ {
		ts = append(ts, mvccTriple(i))
	}
	s.AddAll(ts)
	base := s.View()
	s.Add(rdf.T(mvccTriple(1234).Subject, rdf.IRI("http://example.org/mvcc/q"), rdf.NewString("x")))
	if got := changedSubjects(s, base, s.View()); len(got) != 1 || got[0] != mvccTriple(1234).Subject.String() {
		t.Fatalf("changed = %v, want just subject 1234", got)
	}
	base = s.View()
	s.Remove(mvccTriple(77))
	s.Add(mvccTriple(77))
	if got := changedSubjects(s, base, s.View()); len(got) != 0 {
		t.Fatalf("remove + re-add reported %v", got)
	}
	// Early stop.
	s.Clear()
	n := 0
	s.View().ChangedSubjects(base, func(ID) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("fn called %d times after returning false on the 3rd", n)
	}
}

func FuzzChangedSubjects(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 1, 2, 1, 3, 1, 1, 1}, byte(1))
	f.Add([]byte{0, 1, 1, 1, 0, 33, 1, 1, 0, 65, 1, 1, 6, 33, 7, 0, 0, 1, 1, 1}, byte(2))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 1, 2, 3, 9, 9, 9}, byte(3))
	f.Add([]byte{8, 1, 0, 0, 0, 32, 0, 0, 1, 1, 1, 3, 32, 0, 0, 8, 0, 32, 1, 1, 0, 1, 1}, byte(1))
	// A batch of 16 lands as a base; two adds fold into a run; two removes
	// fold into a new base; a replace and a re-add go into the delta.
	f.Add([]byte{8, 14, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0, 0, 14, 0, 0, 15, 0, 0, 0, 20, 0, 0, 0, 21, 0, 0, 3, 0, 0, 0, 3, 1, 0, 0, 4, 2, 0, 0, 22, 1, 1, 0, 1, 0, 0}, byte(1))
	f.Fuzz(func(t *testing.T, prog []byte, stride byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		checkDiffProgram(t, prog, 1+int(stride%16))
	})
}
