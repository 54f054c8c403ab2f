package gsacs

import (
	"context"
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// mutate1 commits one op through MutateCtx, the engine's only write path.
func mutate1(e *Engine, role rdf.IRI, kind store.OpKind, ts ...rdf.Triple) error {
	_, err := e.MutateCtx(context.Background(), role, []MutationOp{{Kind: kind, Triples: ts}})
	return err
}

func insert(e *Engine, role rdf.IRI, t rdf.Triple) error { return mutate1(e, role, store.OpAdd, t) }
func remove(e *Engine, role rdf.IRI, t rdf.Triple) error { return mutate1(e, role, store.OpRemove, t) }
func update(e *Engine, role rdf.IRI, res rdf.Term, prop rdf.IRI, oldObj, newObj rdf.Term) error {
	return mutate1(e, role, store.OpReplace, rdf.T(res, prop, oldObj), rdf.T(res, prop, newObj))
}

// writeScenario: a role with Modify rights on site names only, and an admin
// with full Modify/Delete.
func writeScenario(t *testing.T) (*Engine, *datagen.Scenario, rdf.IRI, rdf.IRI) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 3, Sites: 4})
	editor := rdf.IRI(seconto.NS + "SiteEditor")
	admin := rdf.IRI(seconto.NS + "Admin")
	sc.Policies.Rules = append(sc.Policies.Rules,
		seconto.Rule{
			ID: seconto.NS + "EditorModify", Subject: editor,
			Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
			Properties: []rdf.IRI{datagen.HasSiteName},
		},
		seconto.Rule{
			ID: seconto.NS + "AdminModify", Subject: admin,
			Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
		},
		seconto.Rule{
			ID: seconto.NS + "AdminDelete", Subject: admin,
			Action: seconto.ActionDelete, Resource: datagen.ChemSite, Permit: true,
		},
	)
	e := New(sc.Policies, sc.Merged, Options{})
	return e, sc, editor, admin
}

func TestInsertPropertyScoped(t *testing.T) {
	e, sc, editor, _ := writeScenario(t)
	site := sc.Chemical.Sites[0].IRI

	// allowed property
	if err := insert(e, editor, rdf.T(site, datagen.HasSiteName, rdf.NewString("Renamed Plant"))); err != nil {
		t.Fatalf("allowed insert rejected: %v", err)
	}
	if !e.Data().Has(rdf.T(site, datagen.HasSiteName, rdf.NewString("Renamed Plant"))) {
		t.Error("insert did not land")
	}

	// denied property
	err := insert(e, editor, rdf.T(site, datagen.HasContactPhone, rdf.NewString("000")))
	var denied *ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("expected ErrDenied, got %v", err)
	}
	if denied.Property != datagen.HasContactPhone {
		t.Errorf("denied property = %v", denied.Property)
	}
	if e.Data().Has(rdf.T(site, datagen.HasContactPhone, rdf.NewString("000"))) {
		t.Error("denied insert landed")
	}

	// rdf:type writes need full access
	if err := insert(e, editor, rdf.T(site, rdf.RDFType, rdf.IRI(rdf.AppNS+"Evil"))); err == nil {
		t.Error("type rewrite allowed for property-scoped role")
	}
}

func TestInsertNoPolicy(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	nobody := rdf.IRI(seconto.NS + "Nobody")
	err := insert(e, nobody, rdf.T(sc.Chemical.Sites[0].IRI, datagen.HasSiteName, rdf.NewString("x")))
	if err == nil {
		t.Error("unauthorized insert allowed")
	}
	if err.Error() == "" {
		t.Error("empty error text")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	e, sc, editor, admin := writeScenario(t)
	site := sc.Chemical.Sites[1].IRI
	name, _ := e.Data().FirstObject(site, datagen.HasSiteName)

	// editor may not delete (no Delete policy)
	if err := remove(e, editor, rdf.T(site, datagen.HasSiteName, name)); err == nil {
		t.Error("delete without Delete policy allowed")
	}
	// admin may
	if err := remove(e, admin, rdf.T(site, datagen.HasSiteName, name)); err != nil {
		t.Fatalf("admin delete rejected: %v", err)
	}
	if _, ok := e.Data().FirstObject(site, datagen.HasSiteName); ok {
		t.Error("delete did not land")
	}

	// update through the editor on its allowed property
	site2 := sc.Chemical.Sites[2].IRI
	old, _ := e.Data().FirstObject(site2, datagen.HasSiteName)
	if err := update(e, editor, site2, datagen.HasSiteName, old, rdf.NewString("Updated Name")); err != nil {
		t.Fatalf("update rejected: %v", err)
	}
	if v, _ := e.Data().FirstObject(site2, datagen.HasSiteName); !v.Equal(rdf.NewString("Updated Name")) {
		t.Errorf("update result = %v", v)
	}
	// update of a non-existent triple fails
	if err := update(e, editor, site2, datagen.HasSiteName, rdf.NewString("never"), rdf.NewString("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("update of absent triple: err = %v, want ErrNotFound", err)
	}
	// update on a denied property fails
	if err := update(e, editor, site2, datagen.HasContactPhone, rdf.NewString("a"), rdf.NewString("b")); err == nil {
		t.Error("update on denied property succeeded")
	}
}

func TestInsertInvalidatesCachedViews(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 3, Sites: 4})
	admin := rdf.IRI(seconto.NS + "Admin")
	sc.Policies.Rules = append(sc.Policies.Rules,
		seconto.Rule{
			ID: seconto.NS + "AdminModify", Subject: admin,
			Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
		})
	e := New(sc.Policies, sc.Merged, Options{})
	v1 := e.View(datagen.RoleHazmat, seconto.ActionView)
	site := sc.Chemical.Sites[0].IRI
	if err := insert(e, admin, rdf.T(site, datagen.HasSiteName, rdf.NewString("New Wing"))); err != nil {
		t.Fatal(err)
	}
	v2 := e.View(datagen.RoleHazmat, seconto.ActionView)
	if v1 == v2 {
		t.Error("cached view survived a write")
	}
	if !v2.Has(rdf.T(site, datagen.HasSiteName, rdf.NewString("New Wing"))) {
		t.Error("write missing from fresh view")
	}
}

func TestInsertRejectsInvalidTriple(t *testing.T) {
	e, _, _, admin := writeScenario(t)
	bad := rdf.Triple{Subject: rdf.NewString("lit"), Predicate: datagen.HasSiteName, Object: rdf.NewString("x")}
	if err := insert(e, admin, bad); err == nil {
		t.Error("invalid triple accepted")
	}
}
