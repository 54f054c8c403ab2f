package gsacs

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

// The two ways a read gets a current view after a write, at the bench
// harness's M size (450 sites, ~10k triples): build from scratch, or patch
// the previous view from the version diff after one rename.

func benchEngine() (*Engine, *datagen.Scenario) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450})
	reasoner := NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := New(sc.Policies, sc.Merged, Options{Reasoner: reasoner, Metrics: obs.NewRegistry()})
	e.EnableAudit(256)
	return e, sc
}

func BenchmarkViewBuild(b *testing.B) {
	e, _ := benchEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.buildView(e.current(), datagen.RoleHazmat, seconto.ActionView)
	}
}

func BenchmarkViewPatchAfterRename(b *testing.B) {
	e, sc := benchEngine()
	e.View(datagen.RoleHazmat, seconto.ActionView)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site := sc.Chemical.Sites[i%len(sc.Chemical.Sites)].IRI
		old, _ := sc.Merged.FirstObject(site, datagen.HasSiteName)
		if _, err := sc.Merged.Replace(rdf.T(site, datagen.HasSiteName, old),
			rdf.T(site, datagen.HasSiteName, rdf.NewString(fmt.Sprintf("rev %d", i)))); err != nil {
			b.Fatal(err)
		}
		e.View(datagen.RoleHazmat, seconto.ActionView)
	}
	b.StopTimer()
	if st := e.Cache().Snapshot(); st.Patches != uint64(b.N) {
		b.Fatalf("patches = %d of %d refreshes (rebuilds %d)", st.Patches, b.N, st.Rebuilds)
	}
}
