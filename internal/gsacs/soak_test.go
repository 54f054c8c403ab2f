package gsacs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/turtle"
)

// TestSoakViewsUnderChurn is the security invariant under churn (ROADMAP
// correctness item (f)), bounded so it runs in tier-1 and under -race in CI:
// while one writer mutates the store — renames, inserts and deletes of sites
// carrying every hidden property, chemical links, retypes, shared and
// detached geometry, coordinate edits, clear + reload — readers of every
// role keep asking for views and query answers, and
//
//   - no MainRep or Hazmat answer ever holds a predicate outside the role's
//     List 8 set, and
//   - every view served equals buildView over the version it is labelled
//     with: a refresh racing a write yields a stale label, never a view torn
//     across two versions (the race ROADMAP recorded against ViewCtx), and
//     the entry's /v1/view document is the rendering of that view, and
//   - a spatial query over a served view, answered from its index, returns
//     what a scan of that view returns.
func TestSoakViewsUnderChurn(t *testing.T) {
	const writes, readers = 250, 4
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 21, Sites: 8, Trunks: 1})
	reasoner := NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := New(sc.Policies, sc.Merged, Options{Reasoner: reasoner})

	// List 8, as predicates a role may ever be shown. Both roles see the
	// hydrology layer whole and, of chemical sites, at least the extent with
	// the GRDF nodes below it.
	hydrology := []rdf.IRI{rdf.RDFType, datagen.HasObjectID, datagen.HasStreamName, datagen.HasStreamType, datagen.FlowsInto, exNext}
	allowed := map[rdf.IRI]map[rdf.IRI]bool{datagen.RoleMainRepair: {}, datagen.RoleHazmat: {}}
	for _, set := range allowed {
		for _, p := range hydrology {
			set[p] = true
		}
	}
	for _, p := range []rdf.IRI{datagen.HasSiteName, datagen.HasChemicalInfo, chemicalProp, datagen.HasChemName} {
		allowed[datagen.RoleHazmat][p] = true
	}
	permitted := func(role rdf.IRI, p rdf.Term) bool {
		set, restricted := allowed[role]
		iri, isIRI := p.(rdf.IRI)
		return !restricted || (isIRI && (set[iri] || iri.Namespace() == grdf.NS))
	}

	near := fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < 20000) }`, sc.Hydrology.Streams[0].IRI)

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(77))
		m := newMutator(rng, sc.Merged, sc.Chemical.Sites[0].IRI)
		steps := m.steps()
		for i := 0; i < writes; i++ {
			steps[rng.Intn(len(steps))].do()
		}
	}()

	var served, stale atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			// Each reader keeps going until the writer is done, and for at
			// least a few rounds so a fast writer does not leave it idle.
			for i := 0; i < 6 || !done.Load(); i++ {
				role := scenarioRoles[(r+i)%len(scenarioRoles)]
				ent := e.viewEntry(ctx, role, seconto.ActionView)
				served.Add(1)
				if ent.base.Generation() != sc.Merged.Generation() {
					stale.Add(1)
				}
				for _, tr := range ent.view.Triples() {
					if !permitted(role, tr.Predicate) {
						t.Errorf("%s view at generation %d holds %s", role.LocalName(), ent.base.Generation(), tr)
						return
					}
				}
				want, _ := e.buildView(e.judgeOver(ent.base, ent.reasoner), role, seconto.ActionView)
				if got, want := ent.view.String(), want.String(); got != want {
					t.Errorf("%s view labelled generation %d is not the view of that version\n%s",
						role.LocalName(), ent.base.Generation(), lineDiff(got, want))
					return
				}
				// The entry's document — rendered by whichever reader asks
				// first — is the rendering of that view, and shows the role
				// nothing List 8 hides. (N-Triples parses as Turtle.)
				f := (r + i) % len(viewFormats)
				doc, _ := ent.document(f)
				if got, want := string(doc.body), renderView(f, want); doc.err != nil || got != want {
					t.Errorf("%s %s document labelled generation %d is not the rendering of that version (%v)\n%s",
						role.LocalName(), viewFormats[f].name, ent.base.Generation(), doc.err, lineDiff(got, want))
					return
				}
				back, err := turtle.ParseString(string(doc.body))
				if err != nil {
					t.Errorf("%s %s document: %v", role.LocalName(), viewFormats[f].name, err)
					return
				}
				for _, tr := range back.Triples() {
					if !permitted(role, tr.Predicate) {
						t.Errorf("%s %s document at generation %d holds %s", role.LocalName(), viewFormats[f].name, ent.base.Generation(), tr)
						return
					}
				}
				// The entry's engine answers a proximity question from the view's
				// spatial index — built by whichever reader asks first, carried
				// from patch to patch after that — as a scan of the same view
				// does, and the view was just checked against the from-scratch one.
				if got, want := answer(ent.sparql, near), answer(plainEngine(ent.view, scanArm), near); got != want {
					t.Errorf("%s at generation %d: sites near the stream by index:\n%s\nby scan:\n%s",
						role.LocalName(), ent.base.Generation(), got, want)
					return
				}
				res, err := e.QueryCtx(ctx, role, seconto.ActionView, `SELECT ?p WHERE { ?s ?p ?o }`)
				if err != nil {
					t.Errorf("%s query: %v", role.LocalName(), err)
					return
				}
				for _, b := range res.Bindings() {
					if !permitted(role, b["p"]) {
						t.Errorf("%s query answer holds predicate %s", role.LocalName(), b["p"])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	st := e.Cache().Snapshot()
	t.Logf("%d writes, %d views served (%d already behind the store when checked): %+v", writes, served.Load(), stale.Load(), st)
	if st.Patches == 0 {
		t.Error("no view was patched under churn")
	}
}
