package grdf

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/store"
)

func TestMeasureRoundTrip(t *testing.T) {
	st := store.New()
	node := rdf.IRI("http://e/temp1")
	// List 1's temperature: 21.23 in Fahrenheit.
	NewMeasure(st, node, 21.23, "http://grdf.org/uom/fahrenheit")
	v, uom, err := Measure(st, node)
	if err != nil || v != 21.23 || uom != "http://grdf.org/uom/fahrenheit" {
		t.Errorf("Measure = %g %q %v", v, uom, err)
	}
	if !st.Has(rdf.T(node, rdf.RDFType, Value)) {
		t.Error("measure not typed grdf:Value")
	}
	if _, _, err := Measure(st, rdf.IRI("http://e/none")); err == nil {
		t.Error("missing measure read succeeded")
	}
}

func TestObservations(t *testing.T) {
	st := store.New()
	stream := newFeature(st, rdf.IRI("http://e/stream"), Feature)
	t1 := time.Date(2008, 4, 7, 9, 0, 0, 0, time.UTC)
	t2 := time.Date(2008, 4, 7, 11, 0, 0, 0, time.UTC)

	o2 := NewObservation(st, rdf.IRI("http://e/obs2"), stream, t2)
	SetObservationValue(st, o2, 7.9, "http://grdf.org/uom/ph")
	o1 := NewObservation(st, rdf.IRI("http://e/obs1"), stream, t1)
	SetObservationValue(st, o1, 6.2, "http://grdf.org/uom/ph")

	// Observation is a Feature subclass: reasoning over the ontology types
	// observations as features, "used as such in a transaction".
	data := st.Snapshot()
	data.AddGraph(Ontology())
	m, _ := owl.Materialize(data)
	if !m.Has(rdf.T(o1, rdf.RDFType, Feature)) {
		t.Error("observation not inferred to be a Feature")
	}

	recs, err := ObservationsOf(st, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if !recs[0].At.Equal(t1) || recs[0].Value != 6.2 || !recs[0].HasVal {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[1].ID != o2 || recs[1].UOM != "http://grdf.org/uom/ph" {
		t.Errorf("second record = %+v", recs[1])
	}
}

func TestEnvelopeWithTimePeriod(t *testing.T) {
	st := store.New()
	site := newFeature(st, rdf.IRI("http://e/site"), Feature)
	env := geom.EnvelopeOf(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 10, Y: 10})
	from := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2008, 12, 31, 0, 0, 0, 0, time.UTC)

	node, err := SetEnvelopeWithTimePeriod(st, site, env, geom.TX83NCF, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Has(rdf.T(node, rdf.RDFType, EnvelopeWithTimePeriod)) {
		t.Error("node not typed EnvelopeWithTimePeriod")
	}
	// still decodes as an envelope (EnvelopeWithTimePeriod "may be used
	// whenever GRDF:Envelope is valid")
	g, _, err := DecodeGeometry(st, node)
	if err != nil || g.Envelope() != env {
		t.Errorf("decode = %v %v", g, err)
	}
	gotFrom, gotTo, err := TimePeriodOf(st, node)
	if err != nil || !gotFrom.Equal(from) || !gotTo.Equal(to) {
		t.Errorf("period = %v..%v %v", gotFrom, gotTo, err)
	}

	// List 3 cardinality holds under the checker.
	data := st.Snapshot()
	data.AddGraph(Ontology())
	m, _ := owl.Materialize(data)
	if vs := owl.Check(m); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
	// a third time position breaks both the reader and the checker
	extra := rdf.IRI("http://e/extraTime")
	NewTimePosition(st, extra, from)
	st.Add(rdf.T(node, HasTimePosition, extra))
	if _, _, err := TimePeriodOf(st, node); err == nil {
		t.Error("3 time positions accepted by reader")
	}
	data = st.Snapshot()
	data.AddGraph(Ontology())
	m, _ = owl.Materialize(data)
	if vs := owl.Check(m); len(vs) == 0 {
		t.Error("cardinality violation not detected")
	}
}

func TestEnvelopeWithTimePeriodRejectsReversed(t *testing.T) {
	st := store.New()
	site := newFeature(st, rdf.IRI("http://e/site"), Feature)
	env := geom.EnvelopeOf(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 1, Y: 1})
	now := time.Now()
	if _, err := SetEnvelopeWithTimePeriod(st, site, env, "", now, now.Add(-time.Hour)); err == nil {
		t.Error("reversed period accepted")
	}
	// An empty envelope has no corners to carry a period.
	if _, err := SetEnvelopeWithTimePeriod(st, site, geom.EmptyEnvelope(), "", now, now); err == nil {
		t.Error("period over an empty envelope accepted")
	}
}

func TestCoverage(t *testing.T) {
	st := store.New()
	sensor := newFeature(st, rdf.IRI("http://e/sensor"), Feature)
	cov := NewCoverage(st, rdf.IRI("http://e/tempSeries"), sensor)

	base := time.Date(2008, 7, 1, 0, 0, 0, 0, time.UTC)
	// insert out of order; read back sorted
	AddCoverageSample(st, cov, base.Add(2*time.Hour), 34.1, "C")
	AddCoverageSample(st, cov, base, 31.5, "C")
	AddCoverageSample(st, cov, base.Add(time.Hour), 32.8, "C")

	samples, err := CoverageSamples(st, cov)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Value != 31.5 || samples[2].Value != 34.1 {
		t.Errorf("sort order wrong: %+v", samples)
	}
	if !st.Has(rdf.T(sensor, HasCoverage, cov)) {
		t.Error("inverse coverage link missing")
	}
	if !st.Has(rdf.T(cov, CoverageOf, sensor)) {
		t.Error("coverageOf link missing")
	}
}
