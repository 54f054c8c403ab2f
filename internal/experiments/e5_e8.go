package experiments

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/geoxacml"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// parsePolicies adapts seconto.Parse for the listing checks.
func parsePolicies(st *store.Store) ([]seconto.Rule, error) {
	set, err := seconto.Parse(st)
	if err != nil {
		return nil, err
	}
	return set.Rules, nil
}

// scenarioProperties are the sensitive predicates whose visibility the
// Section 7.1 matrix tracks.
var scenarioProperties = []struct {
	label string
	pred  rdf.IRI
}{
	{"site extent (grdf:boundedBy)", rdf.IRI(grdf.NS + "boundedBy")},
	{"site name", datagen.HasSiteName},
	{"chemical names", datagen.HasChemName},
	{"chemical codes", datagen.HasChemCode},
	{"quantities", datagen.HasQuantityKg},
	{"site contacts", datagen.HasContactPhone},
	{"stream layer", datagen.HasStreamName},
}

// E5ScenarioViews reproduces the Section 7.1 role matrix: which property
// classes each role's layered view contains.
func E5ScenarioViews() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Contamination scenario role views (Sec 7.1, List 8)",
		Columns: []string{"property", "main repair", "hazmat", "emergency"},
	}
	e, sc := scenarioEngine(17, 8)
	views := map[string]*store.Store{
		"main repair": e.View(datagen.RoleMainRepair, seconto.ActionView),
		"hazmat":      e.View(datagen.RoleHazmat, seconto.ActionView),
		"emergency":   e.View(datagen.RoleEmergency, seconto.ActionView),
	}
	total := func(p rdf.IRI) int { return sc.Merged.Count(nil, p, nil) }
	cell := func(v *store.Store, p rdf.IRI) string {
		n := v.Count(nil, p, nil)
		switch {
		case n == 0:
			return "hidden"
		case n == total(p):
			return fmt.Sprintf("full (%d)", n)
		default:
			return fmt.Sprintf("partial (%d/%d)", n, total(p))
		}
	}
	// The extent rides on envelope corner literals; count envelope corners
	// per role via the boundedBy link instead of the raw predicate when
	// needed — boundedBy itself is the right indicator here.
	for _, p := range scenarioProperties {
		t.AddRow(p.label,
			cell(views["main repair"], p.pred),
			cell(views["hazmat"], p.pred),
			cell(views["emergency"], p.pred))
	}
	t.AddNote("expected (paper): main repair = extent+streams only; hazmat adds site names and chemical NAMES; emergency sees everything")
	t.AddNote("view sizes: main repair %d, hazmat %d, emergency %d triples (source %d)",
		views["main repair"].Len(), views["hazmat"].Len(), views["emergency"].Len(), sc.Merged.Len())
	return t
}

// E6FineVsCoarse reproduces the GeoXACML critique: property-level GRDF
// control vs object-level baseline, measured as leaked / missing property
// triples for the 'main repair' requirement ("should see only the geographic
// extent of chemical sites").
func E6FineVsCoarse(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{5, 20, 50}
	}
	t := &Table{
		ID:    "E6",
		Title: "Fine-grained (GRDF+SecOnto) vs object-level (GeoXACML) access",
		Columns: []string{"sites", "system", "policy choice", "leaked triples",
			"missing triples"},
	}
	for _, n := range sizes {
		e, sc := scenarioEngine(23, n)

		// Sensitive predicates that must stay hidden from main repair; the
		// extent must remain visible.
		sensitive := []rdf.IRI{datagen.HasSiteName, datagen.HasChemName,
			datagen.HasChemCode, datagen.HasQuantityKg, datagen.HasContactPhone,
			datagen.HasContactName}
		countSensitive := func(v *store.Store) int {
			sum := 0
			for _, p := range sensitive {
				sum += v.Count(nil, p, nil)
			}
			return sum
		}
		countExtent := func(v *store.Store) int {
			return v.Count(nil, rdf.IRI(grdf.NS+"boundedBy"), nil)
		}
		wantExtent := countExtent(sc.Merged)

		grdfView := e.View(datagen.RoleMainRepair, seconto.ActionView)
		t.AddRow(fmt.Sprintf("%d", n), "GRDF+SecOnto", "boundedBy only",
			fmt.Sprintf("%d", countSensitive(grdfView)),
			fmt.Sprintf("%d", wantExtent-countExtent(grdfView)))

		// GeoXACML choice A: permit ChemSite → whole object leaks.
		permitAll := &geoxacml.PolicySet{Rules: []geoxacml.Rule{
			{ID: "hydro", Subject: "mainrep", Action: "view",
				Resource: datagen.HydroStream, Effect: geoxacml.Permit},
			{ID: "sites", Subject: "mainrep", Action: "view",
				Resource: datagen.ChemSite, Effect: geoxacml.Permit},
			{ID: "info", Subject: "mainrep", Action: "view",
				Resource: datagen.ChemInfo, Effect: geoxacml.Permit},
			{ID: "rec", Subject: "mainrep", Action: "view",
				Resource: datagen.ChemRecord, Effect: geoxacml.Permit},
		}}
		viewA := permitAll.View("mainrep", "view", sc.Merged)
		t.AddRow(fmt.Sprintf("%d", n), "GeoXACML", "permit sites (all-or-nothing)",
			fmt.Sprintf("%d", countSensitive(viewA)),
			fmt.Sprintf("%d", wantExtent-countExtent(viewA)))

		// GeoXACML choice B: deny ChemSite → the extent the role needs is gone.
		denySites := &geoxacml.PolicySet{Rules: []geoxacml.Rule{
			{ID: "hydro", Subject: "mainrep", Action: "view",
				Resource: datagen.HydroStream, Effect: geoxacml.Permit},
			{ID: "sites", Subject: "mainrep", Action: "view",
				Resource: datagen.ChemSite, Effect: geoxacml.Deny},
		}}
		viewB := denySites.View("mainrep", "view", sc.Merged)
		t.AddRow(fmt.Sprintf("%d", n), "GeoXACML", "deny sites (all-or-nothing)",
			fmt.Sprintf("%d", countSensitive(viewB)),
			fmt.Sprintf("%d", wantExtent-countExtent(viewB)))
	}
	t.AddNote("expected shape: GRDF row has 0 leaked + 0 missing at every size; each GeoXACML choice fails one way")
	return t
}

// E7MergeEnforcement reproduces the data-merge claim: "if base data model
// changes or aggregated with other data sources, the same security framework
// will continue to work" — and the converse failure of the syntactic
// baseline.
func E7MergeEnforcement() *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Policy enforcement under data aggregation (Sec 7.1 merge)",
		Columns: []string{"stage", "system", "extent visible", "sensitive leaked", "enforced"},
	}
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 29, Sites: 10})
	sensitive := []rdf.IRI{datagen.HasChemName, datagen.HasChemCode,
		datagen.HasQuantityKg, datagen.HasContactPhone}
	boundedBy := rdf.IRI(grdf.NS + "boundedBy")

	evaluate := func(stage string, data *store.Store) {
		wantExtent := data.Count(nil, boundedBy, nil)
		countSensitive := func(v *store.Store) int {
			sum := 0
			for _, p := range sensitive {
				sum += v.Count(nil, p, nil)
			}
			return sum
		}
		// GRDF with reasoning
		reasoner := gsacs.NewOWLReasoner(data, grdf.Ontology(), seconto.Ontology())
		e := gsacs.New(sc.Policies, data, gsacs.Options{Reasoner: reasoner})
		v := e.View(datagen.RoleMainRepair, seconto.ActionView)
		extent := v.Count(nil, boundedBy, nil)
		leaked := countSensitive(v)
		t.AddRow(stage, "GRDF+SecOnto",
			fmt.Sprintf("%d/%d", extent, wantExtent),
			fmt.Sprintf("%d", leaked),
			mark(extent == wantExtent && leaked == 0))

		// GeoXACML baseline
		ps := &geoxacml.PolicySet{Rules: []geoxacml.Rule{
			{ID: "sites", Subject: "mainrep", Action: "view",
				Resource: datagen.ChemSite, Effect: geoxacml.Permit},
		}}
		vx := ps.View("mainrep", "view", data)
		extentX := vx.Count(nil, boundedBy, nil)
		leakedX := countSensitive(vx)
		t.AddRow(stage, "GeoXACML",
			fmt.Sprintf("%d/%d", extentX, wantExtent),
			fmt.Sprintf("%d", leakedX),
			mark(extentX == wantExtent && leakedX == 0))
	}

	evaluate("before merge", sc.Merged)

	// Merge: weather overlay aggregated in; sites arrive re-typed under a
	// new subclass of ChemSite, the realistic outcome of aggregating a
	// second source with its own schema.
	merged := sc.Merged.Snapshot()
	weather := datagen.Weather(datagen.WeatherConfig{Seed: 29, Stations: 4})
	merged.AddAll(weather.Triples())
	datagen.LinkSitesToStations(merged)
	newClass := rdf.IRI(rdf.AppNS + "MonitoredChemSite")
	merged.Add(rdf.T(newClass, rdf.RDFSSubClassOf, datagen.ChemSite))
	for _, s := range sc.Chemical.Sites {
		merged.RemoveMatching(s.IRI, rdf.RDFType, datagen.ChemSite)
		merged.Add(rdf.T(s.IRI, rdf.RDFType, newClass))
	}
	evaluate("after merge", merged)
	t.AddNote("expected shape: GRDF enforced before AND after the merge; GeoXACML over-exposes before and loses coverage after the subclass re-typing")
	return t
}

// E8QueryCache reproduces the Fig. 3 Query Cache claim with measured
// latencies: repeated role views and queries with the cache off vs on, plus
// invalidation correctness.
func E8QueryCache(requests int) *Table {
	if requests <= 0 {
		requests = 50
	}
	t := &Table{
		ID:      "E8",
		Title:   "Query Cache performance (Fig. 3)",
		Columns: []string{"workload", "cache", "requests", "total", "per request", "speedup"},
	}
	roles := []rdf.IRI{datagen.RoleMainRepair, datagen.RoleHazmat, datagen.RoleEmergency}

	// The off arm drops the cached views before every request, so each one
	// pays the cold build a request without the cache would.
	run := func(cached bool) (time.Duration, *gsacs.Engine) {
		e, _ := scenarioEngine(31, 30)
		start := time.Now()
		for i := 0; i < requests; i++ {
			if !cached {
				e.Cache().Clear()
			}
			e.View(roles[i%len(roles)], seconto.ActionView)
		}
		return time.Since(start), e
	}

	cold, _ := run(false)
	warm, warmEngine := run(true)
	speedup := float64(cold) / float64(warm)
	t.AddRow("role views", "off", fmt.Sprintf("%d", requests),
		cold.Round(time.Microsecond).String(),
		(cold / time.Duration(requests)).Round(time.Microsecond).String(), "1.0x")
	t.AddRow("role views", "on", fmt.Sprintf("%d", requests),
		warm.Round(time.Microsecond).String(),
		(warm / time.Duration(requests)).Round(time.Microsecond).String(),
		fmt.Sprintf("%.1fx", speedup))
	hits, misses := warmEngine.Cache().Stats()
	t.AddNote("cache hits=%d misses=%d (hit ratio %.0f%%)", hits, misses,
		100*float64(hits)/float64(hits+misses))

	// Invalidation: a mutation must refresh the next view.
	e, sc := scenarioEngine(31, 10)
	v1 := e.View(datagen.RoleHazmat, seconto.ActionView)
	fresh := rdf.IRI(rdf.AppNS + "chem/siteFRESH")
	sc.Merged.AddAll(append(grdf.NewFeature(nil, fresh, datagen.ChemSite),
		rdf.T(fresh, datagen.HasSiteName, rdf.NewString("Fresh Plant"))))
	v2 := e.View(datagen.RoleHazmat, seconto.ActionView)
	invalidated := v1 != v2 && v2.Count(fresh, datagen.HasSiteName, nil) == 1
	t.AddRow("invalidation on data change", mark(invalidated), "", "", "", "")
	t.AddNote("expected shape: order-of-magnitude speedup on repeated requests; stale answers never served")
	return t
}
