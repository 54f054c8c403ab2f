// Package seconto implements the security ontology of Section 7 of the
// paper: Subjects (roles), Policies with Actions, Conditions, Resources and
// PolicyDecisions, including the property-access conditions that give GRDF
// its fine-grained (sub-object) access control — the capability the paper
// contrasts with GeoXACML's object-level grants. Policies are plain RDF
// (List 8) and round-trip through the same stores and serializers as the
// data they protect; that is what lets one security framework keep working
// when data models change or sources are aggregated.
package seconto

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/store"
)

// NS is the security ontology namespace.
const NS = rdf.SecOntoNS

// Classes.
const (
	Subject        rdf.IRI = NS + "Subject"
	Policy         rdf.IRI = NS + "Policy"
	Action         rdf.IRI = NS + "Action"
	Condition      rdf.IRI = NS + "Condition"
	ConditionValue rdf.IRI = NS + "ConditionValue"
	PolicyDecision rdf.IRI = NS + "PolicyDecision"
	Resource       rdf.IRI = NS + "Resource"
)

// Properties.
const (
	HasPolicy         rdf.IRI = NS + "hasPolicy"
	HasAction         rdf.IRI = NS + "hasAction"
	HasCondition      rdf.IRI = NS + "hasCondition"
	HasPolicyDecision rdf.IRI = NS + "hasPolicyDecision"
	HasResource       rdf.IRI = NS + "hasResource"
	CondValDefinition rdf.IRI = NS + "condValDefinition"
	HasPropertyAccess rdf.IRI = NS + "hasPropertyAccess"
	HasSpatialScope   rdf.IRI = NS + "hasSpatialScope"
	HasPriority       rdf.IRI = NS + "hasPriority"
)

// Individuals: actions and decisions.
const (
	ActionView   rdf.IRI = NS + "View"
	ActionModify rdf.IRI = NS + "Modify"
	ActionDelete rdf.IRI = NS + "Delete"
	Permit       rdf.IRI = NS + "Permit"
	Deny         rdf.IRI = NS + "Deny"
)

// Ontology builds the security ontology graph (classes, properties, the
// built-in action and decision individuals).
func Ontology() *rdf.Graph {
	g := rdf.NewGraph()
	for _, c := range []rdf.IRI{Subject, Policy, Action, Condition, ConditionValue, PolicyDecision, Resource} {
		g.Add(rdf.T(c, rdf.RDFType, rdf.OWLClass))
	}
	g.Add(rdf.T(ConditionValue, rdf.RDFSSubClassOf, Condition))
	props := []struct {
		p, dom, rng rdf.IRI
	}{
		{HasPolicy, Subject, Policy},
		{HasAction, Policy, Action},
		{HasCondition, Policy, Condition},
		{HasPolicyDecision, Policy, PolicyDecision},
		{HasResource, Policy, ""},
		{CondValDefinition, ConditionValue, ""},
		{HasPropertyAccess, "", ""},
		{HasSpatialScope, Condition, ""},
	}
	for _, pr := range props {
		g.Add(rdf.T(pr.p, rdf.RDFType, rdf.OWLObjectProperty))
		if pr.dom != "" {
			g.Add(rdf.T(pr.p, rdf.RDFSDomain, pr.dom))
		}
		if pr.rng != "" {
			g.Add(rdf.T(pr.p, rdf.RDFSRange, pr.rng))
		}
	}
	g.Add(rdf.T(HasPriority, rdf.RDFType, rdf.OWLDatatypeProperty))
	g.Add(rdf.T(HasPriority, rdf.RDFSRange, rdf.XSDInteger))
	for _, a := range []rdf.IRI{ActionView, ActionModify, ActionDelete} {
		g.Add(rdf.T(a, rdf.RDFType, Action))
	}
	for _, d := range []rdf.IRI{Permit, Deny} {
		g.Add(rdf.T(d, rdf.RDFType, PolicyDecision))
	}
	return g
}

// Rule is the in-memory form of one policy.
type Rule struct {
	// ID is the policy IRI.
	ID rdf.IRI
	// Subject is the role/subject the policy applies to.
	Subject rdf.IRI
	// Action is the governed action (View, Modify, Delete).
	Action rdf.IRI
	// Resource is a class or individual the policy covers.
	Resource rdf.IRI
	// Permit is true for Permit decisions, false for Deny.
	Permit bool
	// Properties restricts a Permit to these properties ("this is a very
	// flexible way to have fine-grained control over resources and allow
	// access to them either fully or partially"). Empty means full access.
	// On a Deny, Properties lists the denied properties (empty = all).
	Properties []rdf.IRI
	// SpatialScope, when non-nil, limits the policy to resources whose
	// geometry lies within the envelope.
	SpatialScope *geom.Envelope
	// Priority breaks ties between conflicting policies; higher wins. The
	// paper notes "if the combination of policies from participating systems
	// is inconsistent, additional rules may be needed to resolve conflicts".
	Priority int
}

// FullAccess reports whether the rule permits every property.
func (r Rule) FullAccess() bool { return r.Permit && len(r.Properties) == 0 }

// Set is an ordered collection of rules.
type Set struct {
	Rules []Rule
}

// Subjects returns the distinct subjects with at least one rule, sorted.
func (s *Set) Subjects() []rdf.IRI {
	var out []rdf.IRI
	for _, r := range s.Rules {
		out = append(out, r.Subject)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ToGraph serializes the rule set as RDF in the List 8 layout.
func (s *Set) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, r := range s.Rules {
		g.Add(rdf.T(r.Subject, rdf.RDFType, Subject))
		g.Add(rdf.T(r.Subject, HasPolicy, r.ID))
		g.Add(rdf.T(r.ID, rdf.RDFType, Policy))
		g.Add(rdf.T(r.ID, HasAction, r.Action))
		g.Add(rdf.T(r.ID, HasResource, r.Resource))
		if r.Permit {
			g.Add(rdf.T(r.ID, HasPolicyDecision, Permit))
		} else {
			g.Add(rdf.T(r.ID, HasPolicyDecision, Deny))
		}
		if r.Priority != 0 {
			g.Add(rdf.T(r.ID, HasPriority, rdf.NewInteger(int64(r.Priority))))
		}
		if len(r.Properties) > 0 || r.SpatialScope != nil {
			cond := rdf.IRI(string(r.ID) + "/cond")
			g.Add(rdf.T(r.ID, HasCondition, cond))
			g.Add(rdf.T(cond, rdf.RDFType, ConditionValue))
			def := rdf.IRI(string(r.ID) + "/cond/def")
			g.Add(rdf.T(cond, CondValDefinition, def))
			for _, p := range r.Properties {
				g.Add(rdf.T(def, HasPropertyAccess, p))
			}
			if r.SpatialScope != nil {
				scope := rdf.IRI(string(r.ID) + "/cond/scope")
				g.Add(rdf.T(def, HasSpatialScope, scope))
				ll, ur := r.SpatialScope.Corners()
				g.Add(rdf.T(scope, rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Envelope")))
				g.Add(rdf.T(scope, rdf.IRI(rdf.GRDFNS+"lowerCorner"),
					rdf.NewString(geom.FormatCoordinates([]geom.Coord{ll}))))
				g.Add(rdf.T(scope, rdf.IRI(rdf.GRDFNS+"upperCorner"),
					rdf.NewString(geom.FormatCoordinates([]geom.Coord{ur}))))
			}
		}
	}
	return g
}

// Parse extracts the rule set from an RDF store laid out as in List 8.
func Parse(st *store.Store) (*Set, error) {
	set := &Set{}
	seenPolicy := map[rdf.IRI]bool{}
	var links []rdf.Triple
	st.ForEachMatch(nil, HasPolicy, nil, func(t rdf.Triple) bool {
		links = append(links, t)
		return true
	})
	slices.SortFunc(links, func(a, b rdf.Triple) int {
		return cmp.Or(strings.Compare(a.Subject.String(), b.Subject.String()), strings.Compare(a.Object.String(), b.Object.String()))
	})
	for _, link := range links {
		subj, ok := link.Subject.(rdf.IRI)
		if !ok {
			continue
		}
		pol, ok := link.Object.(rdf.IRI)
		if !ok {
			return nil, fmt.Errorf("seconto: policy of %s is not an IRI", subj)
		}
		if seenPolicy[pol] {
			continue
		}
		seenPolicy[pol] = true
		rule, err := parsePolicy(st, subj, pol)
		if err != nil {
			return nil, err
		}
		set.Rules = append(set.Rules, rule)
	}
	return set, nil
}

func parsePolicy(st *store.Store, subj, pol rdf.IRI) (Rule, error) {
	r := Rule{ID: pol, Subject: subj}
	a, _ := st.FirstObject(pol, HasAction)
	if r.Action, _ = a.(rdf.IRI); r.Action == "" {
		return r, fmt.Errorf("seconto: policy %s has no action", pol)
	}
	res, _ := st.FirstObject(pol, HasResource)
	if r.Resource, _ = res.(rdf.IRI); r.Resource == "" {
		return r, fmt.Errorf("seconto: policy %s has no resource", pol)
	}
	dec, ok := st.FirstObject(pol, HasPolicyDecision)
	if !ok {
		return r, fmt.Errorf("seconto: policy %s has no decision", pol)
	}
	switch {
	case dec.Equal(Permit):
		r.Permit = true
	case dec.Equal(Deny):
		r.Permit = false
	default:
		return r, fmt.Errorf("seconto: policy %s has unknown decision %s", pol, dec)
	}
	p, _ := st.FirstObject(pol, HasPriority)
	if lit, ok := p.(rdf.Literal); ok {
		if n, err := lit.Int(); err == nil {
			r.Priority = int(n)
		}
	}
	// Conditions: property access lists and spatial scope.
	for _, cond := range st.Objects(pol, HasCondition) {
		// allow the definition to live directly on the condition node too
		for _, def := range append(st.Objects(cond, CondValDefinition), cond) {
			for _, p := range st.Objects(def, HasPropertyAccess) {
				if iri, ok := p.(rdf.IRI); ok {
					r.Properties = append(r.Properties, iri)
				}
			}
			for _, sc := range st.Objects(def, HasSpatialScope) {
				env, err := parseEnvelope(st, sc)
				if err != nil {
					return r, fmt.Errorf("seconto: policy %s: %w", pol, err)
				}
				r.SpatialScope = &env
			}
		}
	}
	slices.Sort(r.Properties)
	return r, nil
}

func parseEnvelope(st *store.Store, node rdf.Term) (geom.Envelope, error) {
	lo, okL := st.FirstObject(node, rdf.IRI(rdf.GRDFNS+"lowerCorner"))
	hi, okU := st.FirstObject(node, rdf.IRI(rdf.GRDFNS+"upperCorner"))
	if !okL || !okU {
		return geom.Envelope{}, fmt.Errorf("spatial scope %s missing corners", node)
	}
	loLit, okL := lo.(rdf.Literal)
	hiLit, okU := hi.(rdf.Literal)
	if !okL || !okU {
		return geom.Envelope{}, fmt.Errorf("spatial scope %s corners not literals", node)
	}
	lc, err := geom.ParseCoordinates(loLit.Value)
	if err != nil {
		return geom.Envelope{}, err
	}
	uc, err := geom.ParseCoordinates(hiLit.Value)
	if err != nil {
		return geom.Envelope{}, err
	}
	return geom.EnvelopeOf(lc[0], uc[0]), nil
}
