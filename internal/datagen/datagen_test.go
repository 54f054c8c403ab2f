package datagen

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/topo"
)

func TestHydrologyDeterministic(t *testing.T) {
	a := Hydrology(HydrologyConfig{Seed: 42})
	b := Hydrology(HydrologyConfig{Seed: 42})
	if ntriples.Format(a.Store.Graph()) != ntriples.Format(b.Store.Graph()) {
		t.Error("same seed produced different hydrology data")
	}
	c := Hydrology(HydrologyConfig{Seed: 43})
	if ntriples.Format(a.Store.Graph()) == ntriples.Format(c.Store.Graph()) {
		t.Error("different seeds produced identical data")
	}
}

func TestHydrologyStructure(t *testing.T) {
	ds := Hydrology(HydrologyConfig{Seed: 1, Trunks: 2, TributariesPerTrunk: 4})
	if len(ds.Streams) != 2+2*4 {
		t.Fatalf("streams = %d", len(ds.Streams))
	}
	rivers, creeks := 0, 0
	for _, s := range ds.Streams {
		switch s.Type {
		case "river":
			rivers++
			if s.FlowsInto != "" {
				t.Errorf("trunk %s flows into %s", s.IRI, s.FlowsInto)
			}
		case "creek":
			creeks++
			if s.FlowsInto == "" {
				t.Errorf("creek %s has no downstream", s.IRI)
			}
			// confluence: creek's last coord must be on the trunk
			last := s.Geometry.Coords[len(s.Geometry.Coords)-1]
			var trunk Stream
			for _, x := range ds.Streams {
				if x.IRI == s.FlowsInto {
					trunk = x
				}
			}
			found := false
			for _, c := range trunk.Geometry.Coords {
				if c == last {
					found = true
				}
			}
			if !found {
				t.Errorf("creek %s does not join its trunk", s.IRI)
			}
		}
		// geometry decodes from the store
		g, srs, err := grdf.GeometryOf(ds.Store, s.IRI)
		if err != nil || g.Kind() != geom.KindLineString {
			t.Errorf("stream %s geometry: %v %v", s.IRI, g, err)
		}
		if srs != geom.TX83NCF {
			t.Errorf("stream %s srs = %q", s.IRI, srs)
		}
	}
	if rivers != 2 || creeks != 8 {
		t.Errorf("rivers=%d creeks=%d", rivers, creeks)
	}
}

func TestChemicalsStructure(t *testing.T) {
	ds := Chemicals(ChemicalConfig{Seed: 7, Sites: 10})
	if len(ds.Sites) != 10 {
		t.Fatalf("sites = %d", len(ds.Sites))
	}
	ids := map[string]bool{}
	for _, s := range ds.Sites {
		if ids[s.SiteID] {
			t.Errorf("duplicate site id %s", s.SiteID)
		}
		ids[s.SiteID] = true
		if len(s.Chemical) == 0 {
			t.Errorf("site %s has no chemicals", s.IRI)
		}
		env, ok := grdf.EnvelopeOfFeature(ds.Store, s.IRI)
		if !ok || env.Area() == 0 {
			t.Errorf("site %s envelope = %+v %t", s.IRI, env, ok)
		}
		// inventory reachable and typed
		info, ok := ds.Store.FirstObject(s.IRI, HasChemicalInfo)
		if !ok {
			t.Fatalf("site %s has no chem info", s.IRI)
		}
		entries := ds.Store.Objects(info, rdf.IRI(rdf.AppNS+"chemical"))
		if len(entries) != len(s.Chemical) {
			t.Errorf("site %s entries = %d, want %d", s.IRI, len(entries), len(s.Chemical))
		}
		for _, e := range entries {
			if !ds.Store.Has(rdf.T(e, rdf.RDFType, ChemRecord)) {
				t.Errorf("entry %s not typed ChemicalRecord", e)
			}
			if _, ok := ds.Store.FirstObject(e, HasChemCode); !ok {
				t.Errorf("entry %s missing code", e)
			}
		}
	}
}

func TestChemicalsNearStreams(t *testing.T) {
	hydro := Hydrology(HydrologyConfig{Seed: 3})
	chem := Chemicals(ChemicalConfig{Seed: 3, Sites: 20, NearStreams: hydro, NearFraction: 1.0})
	// Every site center must be within 2000ft+footprint of some stream vertex.
	near := 0
	for _, s := range chem.Sites {
		center := s.Bounds.Center()
		for _, st := range hydro.Streams {
			for _, c := range st.Geometry.Coords {
				if center.Dist(c) < 3000 {
					near++
					goto next
				}
			}
		}
	next:
	}
	if near != len(chem.Sites) {
		t.Errorf("near sites = %d / %d", near, len(chem.Sites))
	}
}

func TestWeatherAndLinking(t *testing.T) {
	w := Weather(WeatherConfig{Seed: 5, Stations: 4})
	stations := w.SubjectsOfType(WeatherStation)
	if len(stations) != 4 {
		t.Fatalf("stations = %d", len(stations))
	}
	for _, s := range stations {
		if _, ok := w.FirstObject(s, HasTemperature); !ok {
			t.Errorf("station %s missing temperature", s)
		}
	}
	chem := Chemicals(ChemicalConfig{Seed: 5, Sites: 6})
	merged := chem.Store.Snapshot()
	merged.AddAll(w.Triples())
	n := LinkSitesToStations(merged)
	if n != 6 {
		t.Errorf("linked = %d", n)
	}
	for _, s := range chem.Sites {
		if _, ok := merged.FirstObject(s.IRI, NearStation); !ok {
			t.Errorf("site %s not linked", s.IRI)
		}
	}
}

func TestScenarioShape(t *testing.T) {
	sc := NewScenario(ScenarioConfig{Seed: 11, Sites: 8})
	if sc.Merged.Len() != sc.Hydrology.Store.Len()+sc.Chemical.Store.Len() {
		t.Errorf("merged = %d", sc.Merged.Len())
	}
	if len(sc.Policies.Rules) != 9 {
		t.Errorf("policies = %d", len(sc.Policies.Rules))
	}
	subjects := sc.Policies.Subjects()
	if len(subjects) != 3 {
		t.Errorf("subjects = %v", subjects)
	}
	// policies round-trip through RDF
	back, err := func() (int, error) {
		st := sc.Policies.ToGraph()
		set, err := parseViaStore(st)
		if err != nil {
			return 0, err
		}
		return len(set.Rules), nil
	}()
	if err != nil || back != 9 {
		t.Errorf("policy RDF round trip = %d, %v", back, err)
	}
}

// parseViaStore round-trips a policy graph through the seconto parser.
func parseViaStore(g *rdf.Graph) (*seconto.Set, error) {
	return seconto.Parse(store.FromGraph(g))
}

func TestGeneratedDataValidates(t *testing.T) {
	sc := NewScenario(ScenarioConfig{Seed: 99, Sites: 10})
	merged := sc.Merged.Snapshot()
	merged.AddAll(Weather(WeatherConfig{Seed: 99, Stations: 3}).Triples())
	rep := grdf.Validate(merged)
	if !rep.Valid() {
		t.Errorf("generated data has validation errors: %v", rep.Errors())
	}
	if rep.Checked == 0 {
		t.Error("no geometries checked")
	}
}

func TestHydroTopology(t *testing.T) {
	ds := Hydrology(HydrologyConfig{Seed: 5, Trunks: 2, TributariesPerTrunk: 4})
	st := ds.Store.Snapshot()
	tp, real, err := HydroTopology(ds, st)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges, _, _ := tp.Counts()
	if edges != len(ds.Streams) {
		t.Errorf("edges = %d, want %d", edges, len(ds.Streams))
	}
	// Every tributary mouth coincides with a trunk vertex, but trunk
	// endpoints are its first/last coords; tributary end nodes are interior
	// trunk vertices, so they are distinct nodes with degree >= 1.
	if nodes < len(ds.Streams) {
		t.Errorf("nodes = %d", nodes)
	}
	if errs := tp.Validate(); len(errs) != 0 {
		t.Errorf("Validate = %v", errs)
	}
	if missing := real.Complete(); len(missing) != 0 {
		t.Errorf("unrealized: %v", missing)
	}
	// Every creek edge realization has the creek's length.
	for _, s := range ds.Streams {
		c, ok := real.CurveOf(topo.ID(s.IRI.LocalName()))
		if !ok || c.Length() != s.Geometry.Length() {
			t.Errorf("edge %s realization wrong", s.IRI.LocalName())
		}
	}
	// GRDF encoding landed with the Fig. 2 vocabulary.
	if n := st.Count(nil, rdf.RDFType, grdf.TopoEdge); n != len(ds.Streams) {
		t.Errorf("grdf:Edge triples = %d", n)
	}
	if st.Count(nil, grdf.HasStartNode, nil) != len(ds.Streams) {
		t.Error("hasStartNode triples missing")
	}
	if st.Count(nil, grdf.RealizedBy, nil) == 0 {
		t.Error("realizedBy triples missing")
	}
	// data still validates
	if rep := grdf.Validate(st); !rep.Valid() {
		t.Errorf("topology encoding broke validation: %v", rep.Errors())
	}
}

// TestHydroTopologyEncodingDeterministic: encoding one network twice, each
// time into a store of its own, states the same triples in the same order,
// so the two stores assign the same dictionary IDs.
func TestHydroTopologyEncodingDeterministic(t *testing.T) {
	encode := func() string {
		ds := Hydrology(HydrologyConfig{Seed: 20})
		if _, _, err := HydroTopology(ds, ds.Store); err != nil {
			t.Fatal(err)
		}
		return triplesDigest(ds.Store.Triples())
	}
	first := encode()
	for i := 0; i < 3; i++ {
		if again := encode(); again != first {
			t.Fatalf("encoding %d differs from the first: %s, want %s", i+2, again, first)
		}
	}
}
