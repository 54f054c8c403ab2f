package gsacs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
)

// The oracle of the compiled decision procedure: a decision made from
// scratch for every resource, as the engine made it before the policy set was
// compiled — the role's rules filtered and ordered anew, each rule matched
// against the resource's types one reasoner call at a time, the applicable
// rules sorted and folded into fresh maps.

// forSubject returns the rules applying to the subject, in priority order
// (highest first, stable otherwise).
func forSubject(s *seconto.Set, subject rdf.IRI) []seconto.Rule {
	var out []seconto.Rule
	for _, r := range s.Rules {
		if r.Subject == subject {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// decideFromScratch is the un-instrumented decision procedure, over the
// policy set as written.
func (j *judge) decideFromScratch(policies *seconto.Set, subject, action rdf.IRI, resource rdf.Term) Access {
	rules := forSubject(policies, subject)
	var applicable []seconto.Rule
	for _, r := range rules {
		if r.Action != action {
			continue
		}
		if !j.resourceMatches(r.Resource, resource) {
			continue
		}
		if r.SpatialScope != nil && !j.withinScope(resource, *r.SpatialScope) {
			continue
		}
		applicable = append(applicable, r)
	}
	if len(applicable) == 0 {
		return Access{} // default deny (closed world)
	}
	// Fold from lowest to highest priority so later rules override. Within
	// one priority class permits apply before denies (deny overrides).
	sort.SliceStable(applicable, func(i, j int) bool {
		if applicable[i].Priority != applicable[j].Priority {
			return applicable[i].Priority < applicable[j].Priority
		}
		return applicable[i].Permit && !applicable[j].Permit
	})
	acc := Access{Properties: map[rdf.IRI]bool{}, denied: map[rdf.IRI]bool{}}
	for _, r := range applicable {
		acc.Matched = append(acc.Matched, r.ID)
		switch {
		case r.Permit && len(r.Properties) == 0:
			acc.Full = true
			acc.denied = map[rdf.IRI]bool{}
		case r.Permit:
			for _, p := range r.Properties {
				acc.Properties[p] = true
				delete(acc.denied, p)
			}
		case !r.Permit && len(r.Properties) == 0:
			acc.Full = false
			acc.Properties = map[rdf.IRI]bool{}
			acc.denied = map[rdf.IRI]bool{}
			acc.Matched = acc.Matched[:0]
			acc.Matched = append(acc.Matched, r.ID)
		default: // deny specific properties
			for _, p := range r.Properties {
				delete(acc.Properties, p)
				acc.denied[p] = true
			}
		}
	}
	acc.Allowed = acc.Full || len(acc.Properties) > 0
	return acc
}

// resourceMatches checks policy resource coverage of a concrete resource.
func (j *judge) resourceMatches(policyRes rdf.IRI, resource rdf.Term) bool {
	if policyRes.Equal(resource) {
		return true
	}
	for _, ty := range j.reasoner.TypesOf(resource) {
		if j.reasoner.IsSubClassOf(ty, policyRes) {
			return true
		}
	}
	// Also check direct data types when the reasoner is external to data.
	for _, ty := range j.data.Objects(resource, rdf.RDFType) {
		if j.reasoner.IsSubClassOf(ty, policyRes) {
			return true
		}
	}
	return false
}

// withWriteRules adds to policies a Modify or Delete copy of about half its
// rules, so that every action has rules to compile, and a role may hold
// rules for several.
func withWriteRules(rng *rand.Rand, policies *seconto.Set) *seconto.Set {
	out := &seconto.Set{Rules: slices.Clone(policies.Rules)}
	for _, r := range policies.Rules {
		if rng.Intn(2) == 0 {
			continue
		}
		r.Action = []rdf.IRI{seconto.ActionModify, seconto.ActionDelete}[rng.Intn(2)]
		r.ID = rdf.IRI(string(r.ID) + r.Action.LocalName())
		out.Rules = append(out.Rules, r)
	}
	return out
}

var actions = []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete}

// TestDecisionsEqualDecide: over List 8 and random policy sets (class and
// individual resources, property-level permits and denies, spatial scopes,
// priorities, all three actions), under the OWL reasoner and under none, and
// after every write shape of the patch oracle, the compiled decision for every
// governed resource — and for the one site random policies name, typed or
// not, and for a resource the data does not hold — is the decision made from
// scratch: same Allowed, Full, Properties and property denies, and the same
// fired rules in the same order. One judge decides each state, so the
// memoized decisions are the ones compared. /v1/resource answers and
// MutateCtx denials are the ones the scratch decision implies.
func TestDecisionsEqualDecide(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 41, Sites: 6, Trunks: 1})
	owl := NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	roles := append(slices.Clone(scenarioRoles), rdf.IRI(seconto.NS+"Nobody"))
	var decisions, allowed int
	for seq := 0; seq < 8; seq++ {
		rng := rand.New(rand.NewSource(int64(500 + seq)))
		policies := sc.Policies
		if seq%4 != 0 {
			policies = withWriteRules(rng, randomPolicies(rng, sc))
		}
		opts := Options{Reasoner: owl}
		if seq%2 == 1 {
			opts.Reasoner = nil
		}
		data := sc.Merged.Snapshot()
		e := New(policies, data, opts)
		srv := NewServer(e, nil)
		m := newMutator(rng, data, sc.Chemical.Sites[0].IRI)
		check := func(step string) {
			t.Helper()
			j := e.current()
			resources := append(j.governedResources(), m.named, rdf.IRI(rdf.AppNS+"nowhere"))
			for _, role := range roles {
				for _, action := range actions {
					for _, res := range resources {
						got, want := j.lookup(role, action, res), j.decideFromScratch(policies, role, action, res)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seq %d after %s: %s %s %s: compiled %+v, from scratch %+v",
								seq, step, role.LocalName(), action.LocalName(), res, got, want)
						}
						decisions++
						if got.Allowed {
							allowed++
						}
					}
				}
				checkResources(t, srv, j, policies, role, resources)
				checkWrites(t, e, j, policies, role, resources, rng)
			}
		}
		check("no write")
		for _, s := range m.steps() {
			s.do()
			check(s.name)
		}
	}
	t.Logf("%d decisions compared, %d allowed", decisions, allowed)
	if allowed == 0 || allowed == decisions {
		t.Errorf("%d of %d decisions allowed: the comparison is vacuous", allowed, decisions)
	}
}

// checkResources asks /v1/resource for every resource as role: a resource the
// scratch decision denies is 403, any other is the Turtle of its triples as
// filtered by that decision.
func checkResources(t *testing.T, srv *Server, j *judge, policies *seconto.Set, role rdf.IRI, resources []rdf.Term) {
	t.Helper()
	for _, res := range resources {
		iri, ok := res.(rdf.IRI)
		if !ok {
			continue
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/resource?role="+url.QueryEscape(string(role))+"&iri="+url.QueryEscape(string(iri)), nil))
		want := j.decideFromScratch(policies, role, seconto.ActionView, res)
		if !want.Allowed {
			if rec.Code != http.StatusForbidden {
				t.Fatalf("%s as %s: %d, want 403", res, role.LocalName(), rec.Code)
			}
			continue
		}
		if body := string(turtle.AppendTriples(nil, j.filterResource(res, want), nil)); rec.Code != http.StatusOK || rec.Body.String() != body {
			t.Fatalf("%s as %s: status %d\n%s", res, role.LocalName(), rec.Code, lineDiff(rec.Body.String(), body))
		}
	}
}

// checkWrites asks MutateCtx, as role, to delete a triple the data does not
// hold and to replace one it does not hold, on every resource, with a random
// predicate: each is denied exactly when the scratch decision for its action
// denies the resource, or the property (rdf:type wants full access). Neither
// changes the data when allowed — the delete removes nothing, the replace
// fails on its missing old triple — so the walk leaves the state it checks.
func checkWrites(t *testing.T, e *Engine, j *judge, policies *seconto.Set, role rdf.IRI, resources []rdf.Term, rng *rand.Rand) {
	t.Helper()
	preds := []rdf.IRI{rdf.RDFType, grdf.BoundedBy, grdf.HasGeometry, datagen.HasSiteName, datagen.HasChemicalInfo, chemicalProp}
	gen := e.Data().Generation()
	for _, res := range resources {
		p := preds[rng.Intn(len(preds))]
		absent := rdf.T(res, p, rdf.NewString("absent"))
		for _, op := range []MutationOp{
			{Kind: store.OpRemove, Triples: []rdf.Triple{absent}},
			{Kind: store.OpReplace, Triples: []rdf.Triple{absent, rdf.T(res, p, rdf.NewString("present"))}},
		} {
			action := seconto.ActionModify
			if op.Kind == store.OpRemove {
				action = seconto.ActionDelete
			}
			acc := j.decideFromScratch(policies, role, action, res)
			permitted := acc.Allowed && (p == rdf.RDFType && acc.Full || p != rdf.RDFType && acc.PropertyVisible(p, j.reasoner))
			_, err := e.MutateCtx(context.Background(), role, []MutationOp{op})
			var denied *ErrDenied
			if errors.As(err, &denied) == permitted {
				t.Fatalf("%s %s on %s %s as %s: %v, scratch decision %+v", action.LocalName(), op.Kind, res, p.LocalName(), role.LocalName(), err, acc)
			}
			if !permitted {
				continue
			}
			if op.Kind == store.OpReplace && !errors.Is(err, ErrNotFound) || op.Kind == store.OpRemove && err != nil {
				t.Fatalf("%s on %s as %s: %v", op.Kind, res, role.LocalName(), err)
			}
		}
	}
	if e.Data().Generation() != gen {
		t.Fatal("the write checks wrote")
	}
}

// TestCompiledList8IsPinned: the List 8 policies compiled over the 450-site,
// seed-7 scenario under the OWL reasoner — per role, each type set its
// governed resources have, the rules that apply to it and the access they
// fold to. The table was captured from the per-resource decisions made from
// scratch, before the policy set was compiled.
func TestCompiledList8IsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 450-site scenario")
	}
	const golden = `MainRep (2278 resources)
  BoundingShape Envelope RootGRDFObject → (none)
  ChemInfo → (none)
  ChemSite Feature RootGRDFObject → MainRepPolicy1: boundedBy
  ChemicalRecord → (none)
  Curve Geometry LineString RootGRDFObject → (none)
  Feature HydroStream RootGRDFObject → MainRepHydro: full
Hazmat (2278 resources)
  BoundingShape Envelope RootGRDFObject → (none)
  ChemInfo → HazmatChemInfo: chemical
  ChemSite Feature RootGRDFObject → HazmatSites: boundedBy hasChemicalInfo hasSiteName
  ChemicalRecord → HazmatChemRecord: hasChemName
  Curve Geometry LineString RootGRDFObject → (none)
  Feature HydroStream RootGRDFObject → HazmatHydro: full
EmergencyResponse (2278 resources)
  BoundingShape Envelope RootGRDFObject → (none)
  ChemInfo → EmergencyChemInfo: full
  ChemSite Feature RootGRDFObject → EmergencyAll: full
  ChemicalRecord → EmergencyChemRecord: full
  Curve Geometry LineString RootGRDFObject → (none)
  Feature HydroStream RootGRDFObject → EmergencyAll: full
`
	srv, _ := shapeServer(450)
	e := srv.engine
	var sb strings.Builder
	for _, role := range scenarioRoles {
		j := e.current()
		resources := j.governedResources()
		for _, res := range resources {
			j.lookup(role, seconto.ActionView, res)
		}
		fmt.Fprintf(&sb, "%s (%d resources)\n", role.LocalName(), len(resources))
		var lines []string
		for k, tb := range j.tables {
			for key, covered := range tb.covered {
				var types []string
				for _, nt := range strings.Fields(key) {
					types = append(types, rdf.IRI(strings.Trim(nt, "<>")).LocalName())
				}
				slices.Sort(types)
				lines = append(lines, strings.Join(slices.Compact(types), " ")+" → "+describe(fold(j.rules[k], []byte(covered))))
			}
		}
		slices.Sort(lines)
		for _, l := range slices.Compact(lines) {
			fmt.Fprintf(&sb, "  %s\n", l)
		}
	}
	if got := sb.String(); got != golden {
		t.Errorf("compiled List 8:\n%s\nwant:\n%s", got, golden)
	}
}

// describe renders an access as its fired rules and what they grant.
func describe(acc Access) string {
	if len(acc.Matched) == 0 {
		return "(none)"
	}
	var rules []string
	for _, r := range acc.Matched {
		rules = append(rules, r.LocalName())
	}
	out := strings.Join(rules, " ") + ":"
	switch {
	case !acc.Allowed:
		return out + " denied"
	case acc.Full:
		return out + " full"
	}
	var props []string
	for p := range acc.Properties {
		props = append(props, p.LocalName())
	}
	slices.Sort(props)
	return out + " " + strings.Join(props, " ")
}
