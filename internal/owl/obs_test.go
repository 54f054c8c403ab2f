package owl

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

func TestReasonerInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewReasonerOver(store.New()).Instrument(reg)

	ex := rdf.IRI("http://example.org/")
	r.AddAll([]rdf.Triple{
		rdf.T(ex+"Dog", rdf.RDFSSubClassOf, ex+"Animal"),
		rdf.T(ex+"rex", rdf.RDFType, ex+"Dog"),
	})
	if !r.Store().Has(rdf.T(ex+"rex", rdf.RDFType, ex+"Animal")) {
		t.Fatal("closure incomplete")
	}

	st := r.Stats()
	if got := reg.Gauge("grdf_reasoner_inferred_triples", "").Value(); int(got) != st.Inferred {
		t.Errorf("inferred gauge = %v, stats %d", got, st.Inferred)
	}
	if got := reg.Gauge("grdf_reasoner_iterations", "").Value(); int(got) != st.Iterations {
		t.Errorf("iterations gauge = %v, stats %d", got, st.Iterations)
	}
	if got := reg.Counter("grdf_reasoner_materializations_total", "").Value(); got < 1 {
		t.Errorf("materializations = %v", got)
	}
	if got := reg.Histogram("grdf_reasoner_materialize_seconds", "", nil).Count(); got < 1 {
		t.Errorf("duration observations = %v", got)
	}

	// Incremental adds refresh the gauges.
	r.Add(rdf.T(ex+"Animal", rdf.RDFSSubClassOf, ex+"LivingThing"))
	if got := reg.Gauge("grdf_reasoner_inferred_triples", "").Value(); int(got) != r.Stats().Inferred {
		t.Errorf("gauge stale after incremental add: %v vs %d", got, r.Stats().Inferred)
	}
}
