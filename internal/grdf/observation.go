package grdf

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Typed APIs for the remaining Section 3.3 types: Value (the MeasureType
// mapping of Section 3.2), Observation ("recording/observing of a feature;
// Observation itself is a Feature type"), TimeObject, Coverage ("a series of
// sensor temperatures could be captured by the Coverage type") and
// EnvelopeWithTimePeriod (List 3).

// NewMeasure writes a measure value node per the Section 3.2 rule: the XML
// extension type with base 'double' becomes a property with a range
// restriction, plus the unit-of-measure attribute.
func NewMeasure(st *store.Store, node rdf.Term, value float64, uom string) {
	st.Add(rdf.T(node, rdf.RDFType, Value))
	st.Add(rdf.T(node, MeasureValue, rdf.NewDouble(value)))
	if uom != "" {
		st.Add(rdf.T(node, UOM, rdf.Literal{Value: uom, Datatype: rdf.XSDAnyURI}))
	}
}

// Measure reads a measure node back.
func Measure(st *store.Store, node rdf.Term) (value float64, uom string, err error) {
	v, ok := st.FirstObject(node, MeasureValue)
	if !ok {
		return 0, "", fmt.Errorf("grdf: %s has no measureValue", node)
	}
	lit, ok := v.(rdf.Literal)
	if !ok {
		return 0, "", fmt.Errorf("grdf: %s measureValue is not a literal", node)
	}
	value, err = lit.Float()
	if err != nil {
		return 0, "", err
	}
	if u, ok := st.FirstObject(node, UOM); ok {
		if ul, isLit := u.(rdf.Literal); isLit {
			uom = ul.Value
		}
	}
	return value, uom, nil
}

// NewTimePosition writes a TimePosition node carrying the instant.
func NewTimePosition(st *store.Store, node rdf.Term, at time.Time) {
	st.AddAll(timePosition(nil, node, at))
}

// timePosition appends the triples of a TimePosition node to ts.
func timePosition(ts []rdf.Triple, node rdf.Term, at time.Time) []rdf.Triple {
	return append(ts, rdf.T(node, rdf.RDFType, TimePosition), rdf.T(node, TimeValue, rdf.NewDateTime(at)))
}

// TimePositionOf reads a TimePosition node.
func TimePositionOf(st *store.Store, node rdf.Term) (time.Time, error) {
	v, ok := st.FirstObject(node, TimeValue)
	if !ok {
		return time.Time{}, fmt.Errorf("grdf: %s has no timeValue", node)
	}
	lit, ok := v.(rdf.Literal)
	if !ok {
		return time.Time{}, fmt.Errorf("grdf: %s timeValue is not a literal", node)
	}
	return lit.Time()
}

// NewObservation records an observation of a feature at an instant,
// optionally with a measured value. Observations are themselves features
// ("can be used as such in a transaction that accepts a Feature type").
func NewObservation(st *store.Store, id rdf.IRI, observed rdf.Term, at time.Time) rdf.IRI {
	st.Add(rdf.T(id, rdf.RDFType, Observation))
	if observed != nil {
		st.Add(rdf.T(id, ObservedFeature, observed))
	}
	tp := rdf.IRI(string(id) + "_time")
	NewTimePosition(st, tp, at)
	st.Add(rdf.T(id, HasTimePosition, tp))
	return id
}

// ObservationRecord is a decoded observation.
type ObservationRecord struct {
	ID       rdf.IRI
	Observed rdf.Term
	At       time.Time
	// Value and UOM are set when the observation carries a measure.
	Value  float64
	UOM    string
	HasVal bool
}

// SetObservationValue attaches a measured value to an observation.
func SetObservationValue(st *store.Store, obs rdf.IRI, value float64, uom string) {
	node := rdf.IRI(string(obs) + "_value")
	NewMeasure(st, node, value, uom)
	st.Add(rdf.T(obs, HasValue, node))
}

// ObservationsOf returns the decoded observations of a feature, sorted by
// time.
func ObservationsOf(st *store.Store, feature rdf.Term) ([]ObservationRecord, error) {
	var out []ObservationRecord
	for _, obs := range st.Subjects(ObservedFeature, feature) {
		id, ok := obs.(rdf.IRI)
		if !ok {
			continue
		}
		rec := ObservationRecord{ID: id, Observed: feature}
		if tp, ok := st.FirstObject(obs, HasTimePosition); ok {
			at, err := TimePositionOf(st, tp)
			if err != nil {
				return nil, fmt.Errorf("grdf: observation %s: %w", id, err)
			}
			rec.At = at
		}
		if vn, ok := st.FirstObject(obs, HasValue); ok {
			v, uom, err := Measure(st, vn)
			if err != nil {
				return nil, fmt.Errorf("grdf: observation %s: %w", id, err)
			}
			rec.Value, rec.UOM, rec.HasVal = v, uom, true
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// SetEnvelopeWithTimePeriod attaches a spatio-temporal envelope to a
// feature: the List 3 construct with exactly two time positions describing
// the period of validity.
func SetEnvelopeWithTimePeriod(st *store.Store, feature rdf.IRI, env geom.Envelope,
	srs string, from, to time.Time) (rdf.Term, error) {
	if to.Before(from) {
		return nil, fmt.Errorf("grdf: envelope period ends (%s) before it begins (%s)", to, from)
	}
	if env.Empty {
		return nil, fmt.Errorf("grdf: envelope period over an empty envelope")
	}
	node := rdf.IRI(string(feature) + "_timeEnvelope")
	start := rdf.IRI(string(node) + "_begin")
	end := rdf.IRI(string(node) + "_end")
	ts := withSRS(envelope(nil, node, EnvelopeWithTimePeriod, env), node, srs)
	ts = timePosition(ts, start, from)
	ts = timePosition(ts, end, to)
	st.AddAll(append(ts,
		rdf.T(node, HasTimePosition, start),
		rdf.T(node, HasTimePosition, end),
		rdf.T(feature, BoundedBy, node)))
	return node, nil
}

// TimePeriodOf reads the (earliest, latest) pair of an
// EnvelopeWithTimePeriod node.
func TimePeriodOf(st *store.Store, node rdf.Term) (time.Time, time.Time, error) {
	positions := st.Objects(node, HasTimePosition)
	if len(positions) != 2 {
		return time.Time{}, time.Time{}, fmt.Errorf(
			"grdf: %s has %d time positions, List 3 requires exactly 2", node, len(positions))
	}
	var times []time.Time
	for _, p := range positions {
		at, err := TimePositionOf(st, p)
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		times = append(times, at)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	return times[0], times[1], nil
}

// NewCoverage creates a coverage describing the distribution of a quantity
// over an object ("the object may or may not be geospatial in nature").
func NewCoverage(st *store.Store, id rdf.IRI, of rdf.Term) rdf.IRI {
	st.Add(rdf.T(id, rdf.RDFType, Coverage))
	if of != nil {
		st.Add(rdf.T(id, CoverageOf, of))
		st.Add(rdf.T(of, HasCoverage, id))
	}
	return id
}

// CoverageSample is one (time, value) sample of a coverage.
type CoverageSample struct {
	At    time.Time
	Value float64
	UOM   string
}

// AddCoverageSample appends a timestamped sample to a coverage.
func AddCoverageSample(st *store.Store, cov rdf.IRI, at time.Time, value float64, uom string) {
	idx := st.Count(cov, HasValue, nil)
	node := rdf.IRI(fmt.Sprintf("%s_sample%d", string(cov), idx))
	NewMeasure(st, node, value, uom)
	tp := rdf.IRI(string(node) + "_time")
	NewTimePosition(st, tp, at)
	st.Add(rdf.T(node, HasTimePosition, tp))
	st.Add(rdf.T(cov, HasValue, node))
}

// CoverageSamples reads a coverage's samples sorted by time.
func CoverageSamples(st *store.Store, cov rdf.Term) ([]CoverageSample, error) {
	var out []CoverageSample
	for _, node := range st.Objects(cov, HasValue) {
		v, uom, err := Measure(st, node)
		if err != nil {
			return nil, err
		}
		s := CoverageSample{Value: v, UOM: uom}
		if tp, ok := st.FirstObject(node, HasTimePosition); ok {
			at, err := TimePositionOf(st, tp)
			if err != nil {
				return nil, err
			}
			s.At = at
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out, nil
}
