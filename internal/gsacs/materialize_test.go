package gsacs

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/seconto"
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
// ontologies allocates less than 32 MB. Committing one store version per
// triple, the reasoner allocated 94.6 MB for it.
func TestMaterializeAllocations(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450})
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 32<<20 {
		t.Fatalf("NewOWLReasoner at 450 sites allocates %.1f MB per run, want < 32 MB", float64(got)/(1<<20))
	}
}
