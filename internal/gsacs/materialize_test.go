package gsacs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// TestMaterializationIsOneSample: one MaterializeReasoner is one drain of the
// reasoner, so the engine's registry books exactly one materialization and
// one duration sample per call — the ontologies and the data go in as one
// batch, not one per ontology plus one for the data.
func TestMaterializationIsOneSample(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	reg := obs.NewRegistry()
	e := New(sc.Policies, sc.Merged, Options{Metrics: reg})
	for i := 0; i < 2; i++ {
		e.MaterializeReasoner(grdf.Ontology(), seconto.Ontology())
	}
	if got := reg.Histogram("grdf_reasoner_materialize_seconds", "", nil).Count(); got != 2 {
		t.Errorf("grdf_reasoner_materialize_seconds count = %d after two materializations, want 2", got)
	}
	if got := reg.Counter("grdf_reasoner_materializations_total", "").Value(); got != 2 {
		t.Errorf("grdf_reasoner_materializations_total = %v after two materializations, want 2", got)
	}
	r := e.Reasoner().(*owl.Reasoner)
	if got, want := reg.Gauge("grdf_reasoner_iterations", "").Value(), r.Stats().Iterations; int(got) != want {
		t.Errorf("grdf_reasoner_iterations = %v, the current reasoner ran %d rounds", got, want)
	}
}

// TestMaterializeAllocations: materializing the 450-site scenario with both
// ontologies allocates less than 3.45 MB, and what stays live afterwards is
// well under half of what a copy of the data costs. Committing one store
// version per triple, the reasoner allocated 94.6 MB for it; re-interning and
// re-indexing the data into a private store, 17.6 MB, keeping 4.5 MB live.
// Reasoning over the data's own version it allocates 2.8 MB and keeps 1.0 MB.
func TestMaterializeAllocations(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450})
	onto, sec := grdf.Ontology(), seconto.Ontology()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewOWLReasoner(sc.Merged, onto, sec)
		}
	})
	if got := res.AllocedBytesPerOp(); float64(got) >= 3.45*(1<<20) {
		t.Fatalf("NewOWLReasoner at 450 sites allocates %.1f MB per run, want < 3.45 MB", float64(got)/(1<<20))
	}

	copied := retained(func() any {
		cp := store.New()
		cp.AddAll(sc.Merged.Triples())
		return cp
	})
	kept := retained(func() any { return NewOWLReasoner(sc.Merged, onto, sec) })
	runtime.KeepAlive(sc) // the data stays live, so only what was added is counted
	if kept >= copied/2 {
		t.Fatalf("a materialized reasoner keeps %.1f MB live, a copy of the data %.1f MB: want less than half",
			float64(kept)/(1<<20), float64(copied)/(1<<20))
	}
}

// TestHeapBytesPerTriple: a store of the 450-site scenario keeps at most 74
// heap bytes per triple live — dictionary and all three indexes. With a set
// of its own under every (s,p), (p,o) and (o,s) in pmap indexes it kept 357;
// with a lone third key inline in its parent entry, 223; with the indexes
// held as sorted, pointer-free bases, 77.1; with the dictionary a term pool
// under pointer-free index tables and a numbering instead of term-keyed maps,
// 64.2 (linux/amd64, go1.24, with and without -race), and the bound is that
// plus 15%. The caller's terms stay alive: the dictionary keeps them, it does
// not copy their bytes.
func TestHeapBytesPerTriple(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450})
	ts := sc.Merged.Triples()
	kept := retained(func() any {
		s := store.New()
		s.AddAll(ts)
		return s
	})
	runtime.KeepAlive(ts)
	got := float64(kept) / float64(len(ts))
	t.Logf("a store of %d triples keeps %.1f heap bytes per triple", len(ts), got)
	if got > 74 {
		t.Fatalf("a store of %d triples keeps %.1f heap bytes per triple, want ≤ 74", len(ts), got)
	}
}

// TestViewDictionaryBytes: a role view's dictionary numbers the data's terms
// and copies none, so what it keeps live beyond the data is two arrays of
// uint32 — at most 23 bytes per view term for every role at 450 sites. A
// dictionary of the view's own, term-keyed maps and a term slice, kept 61–73;
// the numbering keeps 10.4–19.6 (MainRep, whose 1,888 terms are spread over
// the data's 5,678, the most), and the bound is that plus 15%.
func TestViewDictionaryBytes(t *testing.T) {
	e, sc := benchEngine()
	for _, role := range []rdf.IRI{datagen.RoleMainRepair, datagen.RoleHazmat, datagen.RoleEmergency} {
		var terms int
		kept := retained(func() any {
			v, _ := e.buildView(e.current(), role, seconto.ActionView)
			terms = v.DictLen()
			return v.Dict()
		})
		runtime.KeepAlive(sc)
		got := float64(kept) / float64(terms)
		t.Logf("%s: the dictionary of a view of %d terms keeps %.1f bytes per term", role.LocalName(), terms, got)
		if got > 23 {
			t.Errorf("%s: the dictionary of a view of %d terms keeps %.1f bytes per term, want ≤ 23", role.LocalName(), terms, got)
		}
	}
}

// retained returns how many heap bytes what build returns keeps live.
func retained(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestMaterializeWhileCommitting is the follower re-bootstrap shape: the
// reasoner is rebuilt over the data while commits land on the data store —
// both sides interning into the one shared dictionary — and decisions read
// the current reasoner. Every decision must equal the one made before the
// churn (the commits only add subjects no policy resource names), and
// materializing leaves the data store's version alone.
func TestMaterializeWhileCommitting(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 12})
	e := New(sc.Policies, sc.Merged, Options{Metrics: obs.NewRegistry()})
	onto, sec := grdf.Ontology(), seconto.Ontology()
	e.MaterializeReasoner(onto, sec)
	site := sc.Chemical.Sites[0].IRI
	want := map[rdf.IRI]Access{}
	for _, role := range scenarioRoles {
		want[role] = e.Decide(role, seconto.ActionView, site)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			x := rdf.IRI(fmt.Sprintf("http://example.org/churn/%d", i))
			sc.Merged.Add(rdf.T(x, rdf.RDFType, rdf.IRI(fmt.Sprintf("http://example.org/churn/Class%d", i%7))))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			role := scenarioRoles[i%len(scenarioRoles)]
			if got := e.Decide(role, seconto.ActionView, site); got.Allowed != want[role].Allowed || got.Full != want[role].Full {
				t.Errorf("%s on %s during materialization: allowed=%v full=%v, before: allowed=%v full=%v",
					role.LocalName(), site, got.Allowed, got.Full, want[role].Allowed, want[role].Full)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		// A term of its own per round, so the reasoner side interns too.
		extra := rdf.NewGraph()
		extra.Add(rdf.T(rdf.IRI(fmt.Sprintf("http://example.org/onto/Class%d", i)), rdf.RDFSSubClassOf, grdf.Feature))
		e.MaterializeReasoner(onto, sec, extra)
	}
	done.Store(true)
	wg.Wait()

	before := sc.Merged.View()
	e.MaterializeReasoner(onto, sec)
	if !sc.Merged.View().Same(before) {
		t.Fatal("materializing published a new version of the data store")
	}
	r := e.Reasoner().(*owl.Reasoner)
	sc.Merged.ForEachMatch(nil, nil, nil, func(tr rdf.Triple) bool {
		if !r.Store().Has(tr) {
			t.Fatalf("the closure lacks data triple %v", tr)
		}
		return true
	})
}
