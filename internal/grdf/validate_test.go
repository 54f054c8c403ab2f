package grdf

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/store"
)

func TestValidateCleanData(t *testing.T) {
	st := store.New()
	f := newFeature(st, rdf.IRI("http://e/f"), Feature)
	if _, err := SetGeometry(st, f, geom.NewPoint(1, 2), geom.TX83NCF); err != nil {
		t.Fatal(err)
	}
	rep := Validate(st)
	if !rep.Valid() {
		t.Errorf("clean data invalid: %v", rep.Issues)
	}
	if rep.Checked != 1 {
		t.Errorf("Checked = %d", rep.Checked)
	}
}

func TestValidateBrokenGeometry(t *testing.T) {
	st := store.New()
	bad := rdf.IRI("http://e/badGeom")
	st.Add(rdf.T(bad, rdf.RDFType, LineString))
	st.Add(rdf.T(bad, Coordinates, rdf.NewString("not numbers")))
	rep := Validate(st)
	if rep.Valid() {
		t.Fatal("broken geometry passed validation")
	}
	errs := rep.Errors()
	if len(errs) != 1 || !errs[0].Subject.Equal(bad) {
		t.Errorf("errors = %v", errs)
	}
	if !strings.Contains(errs[0].String(), "does not decode") {
		t.Errorf("message = %s", errs[0])
	}
}

func TestValidateUnclosedRing(t *testing.T) {
	st := store.New()
	ringNode := rdf.IRI("http://e/openRing")
	st.Add(rdf.T(ringNode, rdf.RDFType, LinearRing))
	st.Add(rdf.T(ringNode, Coordinates, rdf.NewString("0,0 1,0 1,1 0,1"))) // not closed
	rep := Validate(st)
	if rep.Valid() {
		t.Error("unclosed ring passed validation")
	}
}

func TestValidateUnknownGRDFClass(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(rdf.IRI("http://e/x"), rdf.RDFType, rdf.IRI(NS+"Poligon"))) // typo
	rep := Validate(st)
	warned := false
	for _, i := range rep.Issues {
		if i.Severity == "warning" && strings.Contains(i.Message, "not defined") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("typo class not warned: %v", rep.Issues)
	}
	// warnings alone keep the report valid
	if !rep.Valid() {
		t.Error("warnings should not invalidate")
	}
}

func TestValidateCardinalityViolation(t *testing.T) {
	st := store.New()
	env := rdf.IRI("http://e/env")
	st.Add(rdf.T(env, rdf.RDFType, EnvelopeWithTimePeriod))
	st.Add(rdf.T(env, LowerCorner, rdf.NewString("0,0")))
	st.Add(rdf.T(env, UpperCorner, rdf.NewString("1,1")))
	st.Add(rdf.T(env, HasTimePosition, rdf.IRI("http://e/t1"))) // only one
	rep := Validate(st)
	if rep.Valid() {
		t.Fatal("cardinality violation passed")
	}
	found := false
	for _, i := range rep.Errors() {
		if strings.Contains(i.Message, "cardinality") {
			found = true
		}
	}
	if !found {
		t.Errorf("cardinality error missing: %v", rep.Issues)
	}
}

func TestValidateScenarioData(t *testing.T) {
	// The synthetic generators must produce valid GRDF.
	st := store.New()
	f := newFeature(st, rdf.IRI("http://e/multi"), Feature)
	ring, _ := geom.NewLinearRing([]geom.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 0}})
	ms := geom.MultiSurface{Surfaces: []geom.Polygon{geom.NewPolygon(ring)}}
	if _, err := SetGeometry(st, f, ms, ""); err != nil {
		t.Fatal(err)
	}
	rep := Validate(st)
	if !rep.Valid() {
		t.Errorf("issues: %v", rep.Issues)
	}
}
