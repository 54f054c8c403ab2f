package gsacs

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// The acceptance gate for view patching: whatever sequence of writes lands
// between two reads, the view the engine serves — patched forward where it
// could be — holds exactly the triples a fresh buildView over the same pinned
// version holds. buildView is the oracle; it shares decide/filterResource
// with the patcher but none of the diff, expansion or delta logic.

var (
	scenarioRoles = []rdf.IRI{datagen.RoleMainRepair, datagen.RoleHazmat, datagen.RoleEmergency}
	chemicalProp  = rdf.IRI(rdf.AppNS + "chemical")
	exNext        = rdf.IRI("http://example.org/next")
)

// checkViews compares, for every Sec. 7.1 role, the served view and the rule
// counts its audit entries list with a rebuild over the version and reasoner
// the served view is labelled with — and the served view's spatial index, which after the first call is carried
// forward from patch to patch, with one built cold over the same view. (Not
// over the rebuild: where a site has two extents, which one FirstObject names
// goes by dictionary order, and the rebuild has a dictionary of its own.)
func checkViews(t *testing.T, e *Engine, step string) {
	t.Helper()
	for _, role := range scenarioRoles {
		ent := e.viewEntry(context.Background(), role, seconto.ActionView)
		rebuilt, fired := e.buildView(e.judgeOver(ent.base, ent.reasoner), role, seconto.ActionView)
		if got, want := ent.view.String(), rebuilt.String(); got != want {
			t.Fatalf("after %s, %s: served view differs from a rebuild at generation %d\n%s",
				step, role.LocalName(), ent.base.Generation(), lineDiff(got, want))
		}
		if !maps.Equal(ent.fired, fired) || !slices.Equal(ent.rules, ruleList(fired)) {
			t.Fatalf("after %s, %s: served entry's rule counts %v (rules %v), a rebuild's %v",
				step, role.LocalName(), ent.fired, ent.rules, fired)
		}
		at := ent.view.View()
		if got, want := indexDump(at, grdf.IndexOf(at)), indexDump(at, grdf.BuildSpatialIndex(at)); got != want {
			t.Fatalf("after %s, %s: served view's spatial index differs from a cold build at generation %d\n%s",
				step, role.LocalName(), ent.base.Generation(), lineDiff(got, want))
		}
	}
}

// lineDiff lists the lines only one of two sorted N-Triples dumps has.
func lineDiff(got, want string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	g, w := in(got), in(want)
	var sb strings.Builder
	for l := range g {
		if !w[l] {
			fmt.Fprintf(&sb, "  served only:  %s\n", l)
		}
	}
	for l := range w {
		if !g[l] {
			fmt.Fprintf(&sb, "  rebuild only: %s\n", l)
		}
	}
	return sb.String()
}

// mutator applies the write shapes of the issue to a scenario's data store.
type mutator struct {
	rng  *rand.Rand
	data *store.Store
	seed []rdf.Triple // the scenario as generated, for clear + reload
	n    int          // fresh-IRI counter
	// shared records (site, node) pairs made by shareGeometry, for detach.
	shared [][2]rdf.Term
	// named is the one site random policies may name as an individual; it is
	// the one retype strips of every type, so that a resource a policy matches
	// by name goes in and out of being governed at all.
	named rdf.IRI
}

func newMutator(rng *rand.Rand, data *store.Store, named rdf.IRI) *mutator {
	return &mutator{rng: rng, data: data, seed: data.Triples(), named: named}
}

func (m *mutator) fresh(kind string) rdf.IRI {
	m.n++
	return rdf.IRI(fmt.Sprintf("%stest_%s%d", rdf.AppNS, kind, m.n))
}

// site picks a live chemical site, inserting one when none is left.
func (m *mutator) site() rdf.Term {
	sites := m.data.SubjectsOfType(datagen.ChemSite)
	if len(sites) == 0 {
		return m.insertSite()
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].String() < sites[j].String() })
	return sites[m.rng.Intn(len(sites))]
}

func (m *mutator) rename() {
	site := m.site()
	name := rdf.NewString(fmt.Sprintf("Renamed %d", m.rng.Intn(1000)))
	if old, ok := m.data.FirstObject(site, datagen.HasSiteName); ok {
		_, _ = m.data.Replace(rdf.T(site, datagen.HasSiteName, old), rdf.T(site, datagen.HasSiteName, name))
		return
	}
	m.data.Add(rdf.T(site, datagen.HasSiteName, name))
}

func (m *mutator) addChemLink() {
	site := m.site()
	info, ok := m.data.FirstObject(site, datagen.HasChemicalInfo)
	if !ok {
		info = m.fresh("cheminfo")
		m.data.AddAll([]rdf.Triple{
			rdf.T(site, datagen.HasChemicalInfo, info),
			rdf.T(info, rdf.RDFType, datagen.ChemInfo),
		})
	}
	entry := m.fresh("chem")
	m.data.AddAll([]rdf.Triple{
		rdf.T(info, chemicalProp, entry),
		rdf.T(entry, rdf.RDFType, datagen.ChemRecord),
		rdf.T(entry, datagen.HasChemName, rdf.NewString("Acetone")),
		rdf.T(entry, datagen.HasChemCode, rdf.NewString("555AC")),
		rdf.T(entry, datagen.HasQuantityKg, rdf.NewInteger(int64(m.rng.Intn(9000)))),
	})
}

func (m *mutator) removeChemLink() {
	links := m.data.Match(nil, chemicalProp, nil)
	if len(links) == 0 {
		return
	}
	sort.Slice(links, func(i, j int) bool { return links[i].String() < links[j].String() })
	m.data.Remove(links[m.rng.Intn(len(links))])
}

// retype changes what kind of thing a site, or its extent node, is: a site
// leaves or re-enters the class the policies name; an extent stops or starts
// being a structural node, so it leaves or enters its site's closure.
func (m *mutator) retype() {
	site := m.site()
	switch m.rng.Intn(4) {
	case 0:
		_, _ = m.data.Replace(rdf.T(site, rdf.RDFType, datagen.ChemSite),
			rdf.T(site, rdf.RDFType, rdf.IRI(rdf.AppNS+"Warehouse")))
	case 1:
		m.data.Add(rdf.T(site, rdf.RDFType, grdf.Feature))
	case 2:
		if m.data.RemoveMatching(m.named, rdf.RDFType, nil) == 0 {
			m.data.Add(rdf.T(m.named, rdf.RDFType, datagen.ChemSite))
		}
	default:
		ext, ok := m.data.FirstObject(site, grdf.BoundedBy)
		if !ok {
			return
		}
		landmark := rdf.IRI(rdf.AppNS + "Landmark")
		if m.data.Has(rdf.T(ext, rdf.RDFType, landmark)) {
			m.data.Remove(rdf.T(ext, rdf.RDFType, landmark))
		} else {
			m.data.Add(rdf.T(ext, rdf.RDFType, landmark))
		}
	}
}

func (m *mutator) deleteSite() { m.data.RemoveMatching(m.site(), nil, nil) }

// insertSite adds a site with a fresh envelope extent and a polygon geometry
// (blank polygon node → blank ring node → coordinates literal).
func (m *mutator) insertSite() rdf.Term {
	site := m.fresh("site")
	x := datagen.Region.MinX + m.rng.Float64()*datagen.Region.Width()
	y := datagen.Region.MinY + m.rng.Float64()*datagen.Region.Height()
	bounds := geom.EnvelopeOf(geom.Coord{X: x, Y: y}, geom.Coord{X: x + 500, Y: y + 500})
	ext := rdf.IRI(string(site) + "_extent")
	ts, err := grdf.EncodeGeometry(grdf.NewFeature(nil, site, datagen.ChemSite), ext, bounds, "")
	if err != nil {
		panic(err)
	}
	m.data.AddAll(ts)
	ring, err := geom.NewLinearRing([]geom.Coord{{X: x, Y: y}, {X: x + 500, Y: y}, {X: x + 500, Y: y + 500}, {X: x, Y: y + 500}, {X: x, Y: y}})
	if err != nil {
		panic(err)
	}
	if _, err := grdf.SetGeometry(m.data, site, geom.NewPolygon(ring), ""); err != nil {
		panic(err)
	}
	m.data.AddAll([]rdf.Triple{
		rdf.T(site, grdf.BoundedBy, ext),
		rdf.T(site, datagen.HasSiteName, rdf.NewString(fmt.Sprintf("Inserted %d", m.n))),
		rdf.T(site, datagen.HasSiteID, rdf.NewString(fmt.Sprintf("T%05d", m.n))),
		rdf.T(site, datagen.HasContactPhone, rdf.NewString("972-555-0000")),
	})
	return site
}

// shareGeometry makes a second site point at one site's extent node.
func (m *mutator) shareGeometry() {
	a, b := m.site(), m.site()
	node, ok := m.data.FirstObject(a, grdf.BoundedBy)
	if !ok || a == b {
		return
	}
	m.data.Add(rdf.T(b, grdf.BoundedBy, node))
	m.shared = append(m.shared, [2]rdf.Term{a, node}, [2]rdf.Term{b, node})
}

// detach unhooks a shared node from one of the sites pointing at it.
func (m *mutator) detach() {
	if len(m.shared) == 0 {
		m.shareGeometry()
		return
	}
	i := m.rng.Intn(len(m.shared))
	pair := m.shared[i]
	m.shared = append(m.shared[:i], m.shared[i+1:]...)
	m.data.Remove(rdf.T(pair[0], grdf.BoundedBy, pair[1]))
}

// editCoordinate moves a coordinate literal below a site: a corner of its
// envelope, or — for inserted sites — the ring two blank nodes down.
func (m *mutator) editCoordinate() {
	site := m.site()
	shift := func(node rdf.Term, prop rdf.IRI) {
		old, ok := m.data.FirstObject(node, prop)
		if !ok {
			return
		}
		cs, err := geom.ParseCoordinates(old.(rdf.Literal).Value)
		if err != nil {
			return
		}
		d := (m.rng.Float64() - 0.5) * 2 * datagen.Region.Width()
		for i := range cs {
			cs[i].X += d
		}
		_, _ = m.data.Replace(rdf.T(node, prop, old), rdf.T(node, prop, rdf.NewString(geom.FormatCoordinates(cs))))
	}
	if poly, ok := m.data.FirstObject(site, grdf.HasGeometry); ok && m.rng.Intn(2) == 0 {
		if ring, ok := m.data.FirstObject(poly, grdf.Exterior); ok {
			shift(ring, grdf.Coordinates)
			return
		}
	}
	if ext, ok := m.data.FirstObject(site, grdf.BoundedBy); ok {
		shift(ext, []rdf.IRI{grdf.LowerCorner, grdf.UpperCorner}[m.rng.Intn(2)])
	}
}

func (m *mutator) clearReload() {
	m.data.Clear()
	m.data.AddAll(m.seed)
	m.shared = nil
}

// hierarchy toggles a subclass or subproperty axiom in the data — a rebuild
// trigger, and with no reasoner plugged in a change of every site's decision.
func (m *mutator) hierarchy() {
	axioms := []rdf.Triple{
		rdf.T(datagen.ChemSite, rdf.RDFSSubClassOf, grdf.Feature),
		rdf.T(datagen.HasSiteName, rdf.RDFSSubPropertyOf, grdf.BoundedBy),
	}
	ax := axioms[m.rng.Intn(len(axioms))]
	if !m.data.Remove(ax) {
		m.data.Add(ax)
	}
}

// cycle hangs two blank nodes pointing at each other, and back at the site,
// below the site's extent.
func (m *mutator) cycle() {
	site := m.site()
	ext, ok := m.data.FirstObject(site, grdf.BoundedBy)
	if !ok {
		return
	}
	a, b := rdf.NewBlankNode(), rdf.NewBlankNode()
	m.data.AddAll([]rdf.Triple{rdf.T(ext, exNext, a), rdf.T(a, exNext, b), rdf.T(b, exNext, a), rdf.T(b, exNext, site)})
}

// step is one named write shape.
type step struct {
	name string
	do   func()
}

func (m *mutator) steps() []step {
	return []step{
		{"rename", m.rename}, {"rename", m.rename},
		{"add-chem-link", m.addChemLink}, {"remove-chem-link", m.removeChemLink},
		{"retype", m.retype}, {"delete-site", m.deleteSite},
		{"insert-site", func() { m.insertSite() }},
		{"share-geometry", m.shareGeometry}, {"detach", m.detach},
		{"edit-coordinate", m.editCoordinate}, {"edit-coordinate", m.editCoordinate},
		{"clear-reload", m.clearReload}, {"hierarchy", m.hierarchy}, {"cycle", m.cycle},
	}
}

// randomPolicies draws a rule set for the three roles: classes and single
// sites as resources, full and property-level permits and denies, spatial
// scopes that cut the region in two, priorities that make denies win or lose.
func randomPolicies(rng *rand.Rand, sc *datagen.Scenario) *seconto.Set {
	resources := []rdf.IRI{datagen.ChemSite, datagen.ChemSite, datagen.HydroStream, datagen.ChemInfo,
		datagen.ChemRecord, grdf.Feature, grdf.Envelope, sc.Chemical.Sites[0].IRI, sc.Chemical.Sites[0].IRI}
	props := []rdf.IRI{grdf.BoundedBy, grdf.HasGeometry, datagen.HasSiteName, datagen.HasSiteID,
		datagen.HasChemicalInfo, chemicalProp, datagen.HasChemName, datagen.HasContactPhone}
	set := &seconto.Set{}
	for _, role := range scenarioRoles {
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			r := seconto.Rule{
				ID:      rdf.IRI(fmt.Sprintf("%sRandom%s%d", seconto.NS, role.LocalName(), i)),
				Subject: role, Action: seconto.ActionView,
				Resource: resources[rng.Intn(len(resources))],
				Permit:   rng.Intn(5) != 0,
				Priority: rng.Intn(3),
			}
			if rng.Intn(3) != 0 {
				for _, p := range props {
					if rng.Intn(3) == 0 {
						r.Properties = append(r.Properties, p)
					}
				}
			}
			if rng.Intn(3) == 0 {
				reg := datagen.Region
				mid := reg.MinX + (0.3+0.4*rng.Float64())*reg.Width()
				scope := geom.EnvelopeOf(geom.Coord{X: reg.MinX - 1e6, Y: reg.MinY - 1e6}, geom.Coord{X: mid, Y: reg.MaxY + 1e6})
				r.SpatialScope = &scope
			}
			set.Rules = append(set.Rules, r)
		}
	}
	return set
}

func TestPatchedViewEqualsRebuild(t *testing.T) {
	// A few base scenarios, each materialized by the OWL reasoner once; every
	// sequence works on an O(1) snapshot of one of them.
	type base struct {
		sc       *datagen.Scenario
		reasoner Reasoner
	}
	var bases []base
	for i, sites := range []int{4, 6, 9} {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: int64(40 + i), Sites: sites, Trunks: 1})
		bases = append(bases, base{sc, NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())})
	}

	t.Run("random", func(t *testing.T) {
		const sequences = 210
		var patches, rebuilds uint64
		for seq := 0; seq < sequences; seq++ {
			rng := rand.New(rand.NewSource(int64(1000 + seq)))
			b := bases[seq%len(bases)]
			policies := b.sc.Policies // the List 8 set, every fourth sequence
			if seq%4 != 0 {
				policies = randomPolicies(rng, b.sc)
			}
			opts := Options{Reasoner: b.reasoner}
			if seq%3 == 0 {
				opts.Reasoner = nil // direct assertions only: hierarchy edits bite
			}
			data := b.sc.Merged.Snapshot()
			e := New(policies, data, opts)
			m := newMutator(rng, data, b.sc.Chemical.Sites[0].IRI)
			steps := m.steps()
			checkViews(t, e, fmt.Sprintf("seq %d: cold build", seq))
			for i, n := 0, 4+rng.Intn(5); i < n; i++ {
				// One to three writes between reads: the diff spans commits.
				var names []string
				for k, burst := 0, 1+rng.Intn(3); k < burst; k++ {
					s := steps[rng.Intn(len(steps))]
					s.do()
					names = append(names, s.name)
				}
				checkViews(t, e, fmt.Sprintf("seq %d step %d %v", seq, i, names))
			}
			st := e.Cache().Snapshot()
			patches += st.Patches
			rebuilds += st.Rebuilds
		}
		t.Logf("%d sequences × %d roles: %d patches, %d rebuilds", sequences, len(scenarioRoles), patches, rebuilds)
		// The test is about the patch path; if the triggers sent everything
		// to rebuild it would pass vacuously.
		if patches < rebuilds {
			t.Errorf("patches = %d, rebuilds = %d: the patch path is barely exercised", patches, rebuilds)
		}
	})

	// Two sites share one geometry node; it is detached from one of them. The
	// diff names only that site, whose old closure holds the node's triples —
	// which the other site's closure still needs.
	t.Run("shared-node-detach", func(t *testing.T) {
		b := bases[1]
		data := b.sc.Merged.Snapshot()
		e := New(b.sc.Policies, data, Options{Reasoner: b.reasoner})
		siteA, siteB := b.sc.Chemical.Sites[0].IRI, b.sc.Chemical.Sites[1].IRI
		node, _ := data.FirstObject(siteA, grdf.BoundedBy)
		corner, _ := data.FirstObject(node, grdf.LowerCorner)
		checkViews(t, e, "cold build")

		data.Add(rdf.T(siteB, grdf.BoundedBy, node))
		checkViews(t, e, "share")
		data.Remove(rdf.T(siteA, grdf.BoundedBy, node))
		checkViews(t, e, "detach from the first site")
		for _, role := range scenarioRoles {
			v := e.View(role, seconto.ActionView)
			if v.Has(rdf.T(siteA, grdf.BoundedBy, node)) {
				t.Errorf("%s still sees the detached edge", role.LocalName())
			}
			if !v.Has(rdf.T(siteB, grdf.BoundedBy, node)) || !v.Has(rdf.T(node, grdf.LowerCorner, corner)) {
				t.Errorf("%s lost the shared node the second site still reaches", role.LocalName())
			}
		}
		data.Remove(rdf.T(siteB, grdf.BoundedBy, node))
		checkViews(t, e, "detach from the second site")
		for _, role := range scenarioRoles {
			if e.View(role, seconto.ActionView).Has(rdf.T(node, grdf.LowerCorner, corner)) {
				t.Errorf("%s still sees the node nothing visible reaches", role.LocalName())
			}
		}
		if st := e.Cache().Snapshot(); st.Patches != 9 || st.Rebuilds != 3 {
			t.Errorf("3 roles × 3 writes should all patch: %+v", st)
		}
	})

	// A policy scoped to a box around one site; a coordinate two blank nodes
	// below the site moves it out of the box and back.
	t.Run("scope-flip", func(t *testing.T) {
		b := bases[1]
		data := b.sc.Merged.Snapshot()
		site := b.sc.Chemical.Sites[0]
		scope := geom.EnvelopeOf(
			geom.Coord{X: site.Bounds.MinX - 5000, Y: site.Bounds.MinY - 5000},
			geom.Coord{X: site.Bounds.MaxX + 5000, Y: site.Bounds.MaxY + 5000})
		var rules []seconto.Rule
		for _, role := range scenarioRoles {
			rules = append(rules, seconto.Rule{
				ID: rdf.IRI(seconto.NS + "Scoped" + role.LocalName()), Subject: role, Action: seconto.ActionView,
				Resource: datagen.ChemSite, Permit: true, SpatialScope: &scope,
				Properties: []rdf.IRI{datagen.HasSiteName, grdf.HasGeometry},
			})
		}
		e := New(&seconto.Set{Rules: rules}, data, Options{Reasoner: b.reasoner})

		// GeometryOf prefers hasGeometry: give the site a polygon there.
		at := func(dx float64) string {
			x, y := site.Bounds.MinX+dx, site.Bounds.MinY
			return geom.FormatCoordinates([]geom.Coord{{X: x, Y: y}, {X: x + 100, Y: y}, {X: x + 100, Y: y + 100}, {X: x, Y: y + 100}, {X: x, Y: y}})
		}
		poly, ring := rdf.NewBlankNode(), rdf.NewBlankNode()
		data.AddAll([]rdf.Triple{
			rdf.T(site.IRI, grdf.HasGeometry, poly),
			rdf.T(poly, rdf.RDFType, grdf.Polygon), rdf.T(poly, grdf.Exterior, ring),
			rdf.T(ring, rdf.RDFType, grdf.LinearRing), rdf.T(ring, grdf.Coordinates, rdf.NewString(at(0))),
		})
		name := rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(site.Name))
		checkViews(t, e, "cold build")
		if !e.View(datagen.RoleHazmat, seconto.ActionView).Has(name) {
			t.Fatal("site inside the scope is not visible")
		}
		move := func(from, to float64) {
			if ok, err := data.Replace(rdf.T(ring, grdf.Coordinates, rdf.NewString(at(from))),
				rdf.T(ring, grdf.Coordinates, rdf.NewString(at(to)))); !ok || err != nil {
				t.Fatalf("move: %v %v", ok, err)
			}
		}
		move(0, 1e6)
		checkViews(t, e, "move out of scope")
		if v := e.View(datagen.RoleHazmat, seconto.ActionView); v.Has(name) || v.Count(site.IRI, nil, nil) != 0 {
			t.Error("site outside the scope is still visible")
		}
		move(1e6, 50)
		checkViews(t, e, "move back into scope")
		if !e.View(datagen.RoleHazmat, seconto.ActionView).Has(name) {
			t.Error("site back inside the scope is not visible")
		}
		if st := e.Cache().Snapshot(); st.Patches != 6 || st.Rebuilds != 3 {
			t.Errorf("3 roles × 2 moves should all patch: %+v", st)
		}
	})
}

// TestStructuralCycle: blank nodes pointing at each other (and back at the
// resource) below a visible property. Before the visited set this ended the
// process with a stack overflow on the next view build, patch or
// /v1/resource; the edge back to the resource would also have described the
// resource a second time, unfiltered.
func TestStructuralCycle(t *testing.T) {
	e, sc := scenarioEngine(t)
	site := sc.Chemical.Sites[0].IRI
	ext, _ := sc.Merged.FirstObject(site, grdf.BoundedBy)
	checkViews(t, e, "cold build")

	a, b := rdf.NewBlankNode(), rdf.NewBlankNode()
	sc.Merged.AddAll([]rdf.Triple{rdf.T(ext, exNext, a), rdf.T(a, exNext, b), rdf.T(b, exNext, a), rdf.T(b, exNext, site)})

	// Patch path: the cached views are brought forward over the cycle.
	checkViews(t, e, "cycle added")
	if st := e.Cache().Snapshot(); st.Patches != 3 {
		t.Errorf("cycle write was not patched: %+v", st)
	}
	// View path: a cold build walks the same graph.
	for _, role := range scenarioRoles {
		v, _ := e.buildView(e.current(), role, seconto.ActionView)
		if !v.Has(rdf.T(b, exNext, a)) {
			t.Errorf("%s: cold view lacks the cycle's triples", role.LocalName())
		}
	}
	// Resource path: MainRep sees the extent and what hangs below it, and
	// still none of the site's other properties.
	acc := e.Decide(datagen.RoleMainRepair, seconto.ActionView, site)
	for _, tr := range e.FilterResource(site, acc) {
		if tr.Subject == rdf.Term(site) && tr.Predicate != rdf.Term(rdf.RDFType) && tr.Predicate != rdf.Term(grdf.BoundedBy) {
			t.Errorf("MainRep resource leaks %s through the cycle", tr)
		}
	}
	if v := e.View(datagen.RoleMainRepair, seconto.ActionView); v.Count(site, datagen.HasSiteName, nil) != 0 {
		t.Error("MainRep view leaks the site name through the cycle")
	}
}

// stubReasoner entails nothing beyond identity, so class policies match only
// resources asserted to be of exactly the class named.
type stubReasoner struct{}

func (stubReasoner) IsSubClassOf(sub, super rdf.Term) bool    { return sub.Equal(super) }
func (stubReasoner) IsSubPropertyOf(sub, super rdf.Term) bool { return sub.Equal(super) }
func (stubReasoner) TypesOf(rdf.Term) []rdf.Term              { return nil }

// TestSetReasonerDropsCachedViews: a view served after a reasoner swap
// reflects the new reasoner with no write in between.
func TestSetReasonerDropsCachedViews(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	e := New(sc.Policies, sc.Merged, Options{Reasoner: stubReasoner{}})
	site := sc.Chemical.Sites[0]
	name := rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(site.Name))

	// Emergency's grant is over grdf:Feature; without subclass entailment it
	// does not reach ChemSite.
	if e.View(datagen.RoleEmergency, seconto.ActionView).Has(name) {
		t.Fatal("stub reasoner entailed ChemSite ⊑ Feature")
	}
	gen := sc.Merged.Generation()
	e.SetReasoner(NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology()))
	if e.Cache().Snapshot().Entries != 0 {
		t.Error("SetReasoner left cached views behind")
	}
	if !e.View(datagen.RoleEmergency, seconto.ActionView).Has(name) {
		t.Error("view after the swap was judged by the old reasoner")
	}
	if sc.Merged.Generation() != gen {
		t.Fatal("test wrote to the store")
	}
	checkViews(t, e, "reasoner swap")
}
