package seconto

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/rdfxml"
	"repro/internal/store"
)

func mainRepRule() Rule {
	return Rule{
		ID:         rdf.IRI(NS + "MainRepPolicy1"),
		Subject:    rdf.IRI(NS + "MainRep"),
		Action:     ActionView,
		Resource:   rdf.IRI(rdf.AppNS + "ChemSite"),
		Permit:     true,
		Properties: []rdf.IRI{rdf.IRI(rdf.GRDFNS + "boundedBy")},
	}
}

func TestOntologyShape(t *testing.T) {
	g := Ontology()
	if !g.Has(rdf.T(Policy, rdf.RDFType, rdf.OWLClass)) {
		t.Error("Policy class missing")
	}
	if !g.Has(rdf.T(Permit, rdf.RDFType, PolicyDecision)) {
		t.Error("Permit individual missing")
	}
	if !g.Has(rdf.T(HasPolicy, rdf.RDFSDomain, Subject)) {
		t.Error("hasPolicy domain missing")
	}
}

func TestRoundTripRuleSet(t *testing.T) {
	scope := geom.EnvelopeOf(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 100, Y: 100})
	in := &Set{Rules: []Rule{
		mainRepRule(),
		{
			ID:       rdf.IRI(NS + "HazmatPolicy1"),
			Subject:  rdf.IRI(NS + "Hazmat"),
			Action:   ActionView,
			Resource: rdf.IRI(rdf.AppNS + "ChemSite"),
			Permit:   true,
			Properties: []rdf.IRI{
				rdf.IRI(rdf.GRDFNS + "boundedBy"),
				rdf.IRI(rdf.AppNS + "hasChemName"),
			},
			SpatialScope: &scope,
			Priority:     5,
		},
		{
			ID:       rdf.IRI(NS + "PublicDeny"),
			Subject:  rdf.IRI(NS + "Public"),
			Action:   ActionView,
			Resource: rdf.IRI(rdf.AppNS + "ChemSite"),
			Permit:   false,
		},
	}}
	st := store.FromGraph(in.ToGraph())
	out, err := Parse(st)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(out.Rules) != 3 {
		t.Fatalf("rules = %d", len(out.Rules))
	}
	byID := map[rdf.IRI]Rule{}
	for _, r := range out.Rules {
		byID[r.ID] = r
	}
	mr := byID[rdf.IRI(NS+"MainRepPolicy1")]
	if !mr.Permit || len(mr.Properties) != 1 || mr.Properties[0] != rdf.IRI(rdf.GRDFNS+"boundedBy") {
		t.Errorf("MainRep rule = %+v", mr)
	}
	if mr.FullAccess() {
		t.Error("property-restricted rule reported full access")
	}
	hz := byID[rdf.IRI(NS+"HazmatPolicy1")]
	if hz.Priority != 5 || hz.SpatialScope == nil || hz.SpatialScope.MaxX != 100 {
		t.Errorf("Hazmat rule = %+v", hz)
	}
	if len(hz.Properties) != 2 {
		t.Errorf("Hazmat properties = %v", hz.Properties)
	}
	pd := byID[rdf.IRI(NS+"PublicDeny")]
	if pd.Permit || pd.FullAccess() {
		t.Errorf("PublicDeny rule = %+v", pd)
	}
	if subs := out.Subjects(); len(subs) != 3 || !slices.IsSorted(subs) {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestParseList8XML(t *testing.T) {
	// The paper's List 8 as corrected RDF/XML.
	doc := `<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:seconto="http://grdf.org/ontology/seconto#">
  <seconto:Subject rdf:about="http://grdf.org/ontology/seconto#MainRep">
    <seconto:hasPolicy rdf:resource="http://grdf.org/ontology/seconto#MainRepPolicy1"/>
  </seconto:Subject>
  <seconto:Policy rdf:about="http://grdf.org/ontology/seconto#MainRepPolicy1">
    <seconto:hasAction rdf:resource="http://grdf.org/ontology/seconto#View"/>
    <seconto:hasCondition rdf:resource="http://grdf.org/ontology/seconto#CondSites"/>
    <seconto:hasPolicyDecision rdf:resource="http://grdf.org/ontology/seconto#Permit"/>
    <seconto:hasResource rdf:resource="http://grdf.org/app#ChemSite"/>
  </seconto:Policy>
  <seconto:ConditionValue rdf:about="http://grdf.org/ontology/seconto#CondSites">
    <seconto:condValDefinition rdf:parseType="Resource">
      <seconto:hasPropertyAccess rdf:resource="http://grdf.org/ontology/grdf#boundedBy"/>
    </seconto:condValDefinition>
  </seconto:ConditionValue>
</rdf:RDF>`
	g, err := rdfxml.ParseString(doc)
	if err != nil {
		t.Fatalf("rdfxml: %v", err)
	}
	set, err := Parse(store.FromGraph(g))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(set.Rules) != 1 {
		t.Fatalf("rules = %d", len(set.Rules))
	}
	r := set.Rules[0]
	want := mainRepRule()
	if r.Subject != want.Subject || r.Action != want.Action ||
		r.Resource != want.Resource || !r.Permit {
		t.Errorf("rule = %+v", r)
	}
	if len(r.Properties) != 1 || r.Properties[0] != rdf.IRI(rdf.GRDFNS+"boundedBy") {
		t.Errorf("properties = %v", r.Properties)
	}
}

func TestParseMalformedPolicies(t *testing.T) {
	mk := func(mutilate func(*Set)) *store.Store {
		s := &Set{Rules: []Rule{mainRepRule()}}
		mutilate(s)
		return store.FromGraph(s.ToGraph())
	}
	// missing action
	st := mk(func(s *Set) {})
	st.RemoveMatching(nil, HasAction, nil)
	if _, err := Parse(st); err == nil {
		t.Error("policy without action parsed")
	}
	st = mk(func(s *Set) {})
	st.RemoveMatching(nil, HasPolicyDecision, nil)
	if _, err := Parse(st); err == nil {
		t.Error("policy without decision parsed")
	}
	st = mk(func(s *Set) {})
	st.RemoveMatching(nil, HasResource, nil)
	if _, err := Parse(st); err == nil {
		t.Error("policy without resource parsed")
	}
}

func TestDetectConflicts(t *testing.T) {
	role := rdf.IRI(NS + "R")
	res := rdf.IRI(rdf.AppNS + "ChemSite")
	p := rdf.IRI(rdf.AppNS + "hasSiteName")
	q := rdf.IRI(rdf.AppNS + "hasChemCode")

	cases := []struct {
		name  string
		rules []Rule
		want  int
	}{
		{"full permit vs full deny", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true},
			{ID: "d1", Subject: role, Action: ActionView, Resource: res, Permit: false},
		}, 1},
		{"partial scopes overlapping", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true, Properties: []rdf.IRI{p, q}},
			{ID: "d1", Subject: role, Action: ActionView, Resource: res, Permit: false, Properties: []rdf.IRI{q}},
		}, 1},
		{"disjoint property scopes", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true, Properties: []rdf.IRI{p}},
			{ID: "d1", Subject: role, Action: ActionView, Resource: res, Permit: false, Properties: []rdf.IRI{q}},
		}, 0},
		{"different priorities already resolved", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true, Priority: 2},
			{ID: "d1", Subject: role, Action: ActionView, Resource: res, Permit: false, Priority: 1},
		}, 0},
		{"different subjects", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true},
			{ID: "d1", Subject: rdf.IRI(NS + "Other"), Action: ActionView, Resource: res, Permit: false},
		}, 0},
		{"different actions", []Rule{
			{ID: "p1", Subject: role, Action: ActionView, Resource: res, Permit: true},
			{ID: "d1", Subject: role, Action: ActionModify, Resource: res, Permit: false},
		}, 0},
	}
	for _, c := range cases {
		s := &Set{Rules: c.rules}
		got := s.DetectConflicts()
		if len(got) != c.want {
			t.Errorf("%s: conflicts = %d, want %d (%v)", c.name, len(got), c.want, got)
		}
		if c.want > 0 && got[0].String() == "" {
			t.Errorf("%s: empty conflict string", c.name)
		}
	}
}

func TestMergeAndResolve(t *testing.T) {
	role := rdf.IRI(NS + "R")
	res := rdf.IRI(rdf.AppNS + "ChemSite")
	// two "servers" with clashing policies
	serverA := &Set{Rules: []Rule{
		{ID: NS + "aPermit", Subject: role, Action: ActionView, Resource: res, Permit: true},
	}}
	serverB := &Set{Rules: []Rule{
		{ID: NS + "bDeny", Subject: role, Action: ActionView, Resource: res, Permit: false},
	}}
	merged := Merge(serverA, serverB, nil)
	if len(merged.Rules) != 2 {
		t.Fatalf("merged rules = %d", len(merged.Rules))
	}
	conflicts := merged.DetectConflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}

	denyWins := merged.Resolve(DenyWins)
	if len(denyWins.DetectConflicts()) != 0 {
		t.Error("DenyWins left conflicts")
	}
	var deny, permit Rule
	for _, r := range denyWins.Rules {
		if r.Permit {
			permit = r
		} else {
			deny = r
		}
	}
	if deny.Priority <= permit.Priority {
		t.Errorf("DenyWins priorities: deny=%d permit=%d", deny.Priority, permit.Priority)
	}

	permitWins := merged.Resolve(PermitWins)
	if len(permitWins.DetectConflicts()) != 0 {
		t.Error("PermitWins left conflicts")
	}
	for _, r := range permitWins.Rules {
		if r.Permit && r.Priority == 0 {
			t.Error("PermitWins did not raise the permit")
		}
	}
	// original set untouched
	if merged.Rules[0].Priority != 0 || merged.Rules[1].Priority != 0 {
		t.Error("Resolve mutated its input")
	}
}
