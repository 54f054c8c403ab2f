package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func tr(s, p, o string) rdf.Triple {
	return rdf.T(rdf.IRI("http://e/"+s), rdf.IRI("http://e/"+p), rdf.IRI("http://e/"+o))
}

func TestAddHasRemove(t *testing.T) {
	s := New()
	a := tr("s1", "p1", "o1")
	if !s.Add(a) {
		t.Fatal("Add new = false")
	}
	if s.Add(a) {
		t.Error("Add duplicate = true")
	}
	if !s.Has(a) {
		t.Error("Has = false")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Remove(a) {
		t.Error("Remove = false")
	}
	if s.Remove(a) {
		t.Error("Remove absent = true")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	s := New()
	if s.Add(rdf.Triple{Subject: rdf.NewString("x"), Predicate: rdf.IRI("http://e/p"), Object: rdf.IRI("http://e/o")}) {
		t.Error("literal subject accepted")
	}
}

func TestMatchAllPatterns(t *testing.T) {
	s := New()
	s.Add(tr("s1", "p1", "o1"))
	s.Add(tr("s1", "p1", "o2"))
	s.Add(tr("s1", "p2", "o1"))
	s.Add(tr("s2", "p1", "o1"))

	cases := []struct {
		sub, pred, obj rdf.Term
		want           int
	}{
		{rdf.IRI("http://e/s1"), rdf.IRI("http://e/p1"), rdf.IRI("http://e/o1"), 1},
		{rdf.IRI("http://e/s1"), rdf.IRI("http://e/p1"), nil, 2},
		{rdf.IRI("http://e/s1"), nil, rdf.IRI("http://e/o1"), 2},
		{nil, rdf.IRI("http://e/p1"), rdf.IRI("http://e/o1"), 2},
		{rdf.IRI("http://e/s1"), nil, nil, 3},
		{nil, rdf.IRI("http://e/p1"), nil, 3},
		{nil, nil, rdf.IRI("http://e/o1"), 3},
		{nil, nil, nil, 4},
		{rdf.IRI("http://e/zz"), nil, nil, 0},
	}
	for i, c := range cases {
		if got := len(s.Match(c.sub, c.pred, c.obj)); got != c.want {
			t.Errorf("case %d: Match = %d, want %d", i, got, c.want)
		}
		if got := s.Count(c.sub, c.pred, c.obj); got != c.want {
			t.Errorf("case %d: Count = %d, want %d", i, got, c.want)
		}
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Add(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	n := 0
	s.ForEachMatch(nil, nil, nil, func(rdf.Triple) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRemoveMatching(t *testing.T) {
	s := New()
	s.Add(tr("s1", "p1", "o1"))
	s.Add(tr("s1", "p1", "o2"))
	s.Add(tr("s2", "p1", "o1"))
	if got := s.RemoveMatching(rdf.IRI("http://e/s1"), nil, nil); got != 2 {
		t.Errorf("RemoveMatching = %d", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestObjectsSubjectsFirst(t *testing.T) {
	s := New()
	s.Add(tr("s1", "p1", "o1"))
	s.Add(tr("s1", "p1", "o2"))
	if got := s.Objects(rdf.IRI("http://e/s1"), rdf.IRI("http://e/p1")); len(got) != 2 {
		t.Errorf("Objects = %v", got)
	}
	if _, ok := s.FirstObject(rdf.IRI("http://e/s1"), rdf.IRI("http://e/p1")); !ok {
		t.Error("FirstObject not found")
	}
	if _, ok := s.FirstObject(rdf.IRI("http://e/zz"), rdf.IRI("http://e/p1")); ok {
		t.Error("FirstObject found for absent subject")
	}
	if got := s.Subjects(rdf.IRI("http://e/p1"), rdf.IRI("http://e/o1")); len(got) != 1 {
		t.Errorf("Subjects = %v", got)
	}
}

func TestSubjectsOfType(t *testing.T) {
	s := New()
	feature := rdf.IRI(rdf.GRDFNS + "Feature")
	s.Add(rdf.T(rdf.IRI("http://e/a"), rdf.RDFType, feature))
	s.Add(rdf.T(rdf.IRI("http://e/b"), rdf.RDFType, feature))
	if got := s.SubjectsOfType(feature); len(got) != 2 {
		t.Errorf("SubjectsOfType = %v", got)
	}
}

// TestSubjectsAreDistinct: Subjects lists a subject once however many of
// its triples match — two types, or two predicates to one object — in the
// order its first match comes in; a fully bound pattern is unchanged.
func TestSubjectsAreDistinct(t *testing.T) {
	s := New()
	a, b := rdf.IRI("http://e/A"), rdf.IRI("http://e/B")
	for _, sub := range []string{"s", "u"} {
		s.Add(rdf.T(rdf.IRI("http://e/"+sub), rdf.RDFType, a))
		s.Add(rdf.T(rdf.IRI("http://e/"+sub), rdf.RDFType, b))
	}
	s.Add(tr("s", "p1", "o"))
	s.Add(tr("s", "p2", "o"))
	s.Add(tr("u", "p2", "o"))
	sub, u := rdf.IRI("http://e/s"), rdf.IRI("http://e/u")
	for _, c := range []struct {
		pred, obj rdf.Term
		want      []rdf.Term
	}{
		{rdf.RDFType, nil, []rdf.Term{sub, u}},
		{nil, rdf.IRI("http://e/o"), []rdf.Term{sub, u}},
		{rdf.RDFType, a, []rdf.Term{sub, u}},
		{rdf.IRI("http://e/p1"), rdf.IRI("http://e/o"), []rdf.Term{sub}},
	} {
		for name, got := range map[string][]rdf.Term{"Store": s.Subjects(c.pred, c.obj), "StoreView": s.View().Subjects(c.pred, c.obj)} {
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s.Subjects(%v, %v) = %v, want %v", name, c.pred, c.obj, got, c.want)
			}
		}
	}
}

func TestSnapshotIndependence(t *testing.T) {
	s := New()
	s.Add(tr("s1", "p1", "o1"))
	snap := s.Snapshot()
	s.Add(tr("s2", "p2", "o2"))
	if snap.Len() != 1 {
		t.Errorf("snapshot grew: %d", snap.Len())
	}
	snap.Add(tr("s3", "p3", "o3"))
	if s.Len() != 2 {
		t.Errorf("store affected by snapshot mutation: %d", s.Len())
	}
}

func TestGenerationAdvances(t *testing.T) {
	s := New()
	g0 := s.Generation()
	s.Add(tr("s", "p", "o"))
	if s.Generation() == g0 {
		t.Error("generation unchanged after Add")
	}
	g1 := s.Generation()
	s.Add(tr("s", "p", "o")) // duplicate: no mutation
	if s.Generation() != g1 {
		t.Error("generation changed on duplicate Add")
	}
	s.Remove(tr("s", "p", "o"))
	if s.Generation() == g1 {
		t.Error("generation unchanged after Remove")
	}
}

func TestClearAndStats(t *testing.T) {
	s := New()
	s.Add(tr("s1", "p1", "o1"))
	s.Add(tr("s2", "p1", "o1"))
	st := s.Stats()
	if st.Triples != 2 || st.Subjects != 2 || st.Predicates != 1 || st.Objects != 1 {
		t.Errorf("Stats = %+v", st)
	}
	s.Clear()
	if s.Len() != 0 {
		t.Errorf("Len after Clear = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDescribeResourceSorted(t *testing.T) {
	s := New()
	sub := rdf.IRI("http://e/s")
	s.Add(rdf.T(sub, rdf.IRI("http://e/z"), rdf.NewString("1")))
	s.Add(rdf.T(sub, rdf.IRI("http://e/a"), rdf.NewString("2")))
	s.Add(rdf.T(sub, rdf.IRI("http://e/a"), rdf.NewString("1")))
	d := s.DescribeResource(sub)
	if len(d) != 3 {
		t.Fatalf("Describe len = %d", len(d))
	}
	if d[0].Predicate != rdf.IRI("http://e/a") || d[2].Predicate != rdf.IRI("http://e/z") {
		t.Errorf("not sorted: %v", d)
	}
}

// TestDescribeResourceOrderIsTheStringOrder: DescribeResource, which makes
// each triple's forms once, orders a resource's triples as comparing
// Predicate.String() and then Object.String() on every comparison did — IRIs
// that prefix each other (<a!> before <a>), literals of every kind, and two
// literals with one form among them.
func TestDescribeResourceOrderIsTheStringOrder(t *testing.T) {
	preds := []rdf.Term{rdf.IRI("http://e/a"), rdf.IRI("http://e/a!"), rdf.IRI("http://e/ab"), rdf.IRI("http://e/a/b"), rdf.RDFType}
	objs := []rdf.Term{
		rdf.IRI("http://e/a"), rdf.IRI("http://e/a!"), rdf.IRI("http://e/a#x"), rdf.BlankNode("b1"), rdf.BlankNode("b10"),
		rdf.NewString("1"), rdf.Literal{Value: "1"}, rdf.NewInteger(1), rdf.NewLangString("1", "en"), rdf.NewString("1 "),
		rdf.NewString("quo\"te"), rdf.NewString("é"), rdf.NewString(""),
	}
	sub := rdf.IRI("http://e/s")
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for range 1 + rng.Intn(40) {
			s.Add(rdf.T(sub, preds[rng.Intn(len(preds))], objs[rng.Intn(len(objs))]))
		}
		want := s.Match(sub, nil, nil)
		sort.Slice(want, func(i, j int) bool {
			pi, pj := want[i].Predicate.String(), want[j].Predicate.String()
			if pi != pj {
				return pi < pj
			}
			return want[i].Object.String() < want[j].Object.String()
		})
		if got := s.DescribeResource(sub); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n got %v\nwant %v", seed, got, want)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(tr(fmt.Sprintf("s%d", w), "p", fmt.Sprintf("o%d", i)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Count(nil, rdf.IRI("http://e/p"), nil)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromGraphAndGraphRoundTrip(t *testing.T) {
	g := rdf.GraphOf(tr("a", "b", "c"), tr("d", "e", "f"))
	s := FromGraph(g)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	back := s.Graph()
	if !back.Equal(g) {
		t.Error("graph round trip lost triples")
	}
}

// Property: after an arbitrary interleaving of adds and removes the indexes
// stay mutually consistent and Len agrees with Match(nil,nil,nil).
func TestQuickIndexConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New()
		for _, op := range ops {
			t := tr(
				fmt.Sprintf("s%d", op%7),
				fmt.Sprintf("p%d", (op>>3)%5),
				fmt.Sprintf("o%d", (op>>6)%11),
			)
			if op%2 == 0 {
				s.Add(t)
			} else {
				s.Remove(t)
			}
		}
		if err := s.Validate(); err != nil {
			return false
		}
		return s.Len() == len(s.Match(nil, nil, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDatasetGraphs(t *testing.T) {
	d := NewDataset()
	hydro := rdf.IRI("http://grdf.org/data/hydrology")
	chem := rdf.IRI("http://grdf.org/data/chemical")

	g, ok := d.Graph(hydro, true)
	if !ok || g == nil {
		t.Fatal("create graph failed")
	}
	g.Add(tr("stream1", "p", "o"))

	if _, ok := d.Graph(chem, false); ok {
		t.Error("absent graph reported present")
	}
	cs := New()
	cs.Add(tr("site1", "p", "o"))
	d.SetGraph(chem, cs)

	names := d.GraphNames()
	if len(names) != 2 || names[0] != chem || names[1] != hydro {
		t.Errorf("GraphNames = %v", names)
	}

	d.Default().Add(tr("def", "p", "o"))
	u := d.Union()
	if u.Len() != 3 {
		t.Errorf("Union len = %d", u.Len())
	}
	if d.Len() != 3 {
		t.Errorf("Dataset len = %d", d.Len())
	}

	if !d.DropGraph(chem) || d.DropGraph(chem) {
		t.Error("DropGraph semantics wrong")
	}
}

// TestAddIDs: an ID-level add is one commit that lands exactly what the
// term-level add of the same triples lands, leaves its argument alone, and
// is refused outright by a store with a commit hook — it has no terms to
// log, so it must never reach a store whose writes are logged.
func TestAddIDs(t *testing.T) {
	want := New()
	want.AddAll([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c")})
	s := New()
	s.Add(tr("a", "p", "b"))
	ids := [][3]ID{
		{s.Intern(rdf.IRI("http://e/b")), s.Intern(rdf.IRI("http://e/p")), s.Intern(rdf.IRI("http://e/c"))},
		{s.Intern(rdf.IRI("http://e/a")), s.Intern(rdf.IRI("http://e/p")), s.Intern(rdf.IRI("http://e/b"))},
	}
	ids = append(ids, ids[0])
	arg := fmt.Sprint(ids)
	gen := s.Generation()
	if n, err := s.AddIDs(ids); n != 1 || err != nil {
		t.Fatalf("AddIDs = %d, %v; want 1 new triple", n, err)
	}
	if fmt.Sprint(ids) != arg {
		t.Fatalf("AddIDs reordered its argument: %v, was %s", ids, arg)
	}
	if s.String() != want.String() || s.Generation() != gen+1 {
		t.Fatalf("after AddIDs, generation %d (was %d):\n%s\nwant:\n%s", s.Generation(), gen, s, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AddIDs(ids); n != 0 || err != nil || s.Generation() != gen+1 {
		t.Fatalf("AddIDs of present triples = %d, %v, generation %d; want a no-op", n, err, s.Generation())
	}

	hooked := New()
	hooked.SetGroupCommitHook(func([][]Op) error { return nil })
	if n, err := hooked.AddIDs(ids); !errors.Is(err, ErrHooked) || n != 0 || hooked.Len() != 0 {
		t.Fatalf("AddIDs on a hooked store = %d, %v with %d triples; want ErrHooked and nothing added", n, err, hooked.Len())
	}
}
