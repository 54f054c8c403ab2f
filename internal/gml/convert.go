package gml

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The GML ⇄ GRDF converter — the mapping the paper motivates GRDF with:
// GML's content model carried over into OWL so that "a polygon in GRDF can
// be directly mapped to a polygon in GML."

// ToGRDF writes the collection into st as GRDF triples, committed with one
// AddAll. Feature IRIs are minted under ns (e.g. rdf.AppNS) from the feature
// ID or an index. It returns the minted feature IRIs in input order.
func ToGRDF(st *store.Store, col *Collection, ns string) ([]rdf.IRI, error) {
	if ns == "" {
		ns = rdf.AppNS
	}
	var (
		out []rdf.IRI
		ts  []rdf.Triple
		err error
	)
	for i := range col.Features {
		f := &col.Features[i]
		id := f.ID
		if id == "" {
			id = fmt.Sprintf("%s_%d", f.TypeName, i)
		}
		iri := rdf.IRI(ns + id)
		ts = grdf.NewFeature(ts, iri, rdf.IRI(ns+f.TypeName))

		for _, p := range f.Properties {
			propNS := p.Namespace
			if propNS == "" || isGMLNS(propNS) {
				propNS = ns
			}
			if !strings.HasSuffix(propNS, "#") && !strings.HasSuffix(propNS, "/") {
				propNS += "#"
			}
			ts = append(ts, rdf.T(iri, rdf.IRI(propNS+p.Name), rdf.NewString(p.Value)))
		}
		if f.Geometry != nil {
			node := rdf.NewBlankNode()
			if ts, err = grdf.EncodeGeometry(ts, node, f.Geometry, f.SRSName); err != nil {
				return nil, fmt.Errorf("gml: feature %s: %w", id, err)
			}
			ts = append(ts, rdf.T(iri, grdf.HasGeometry, node))
			if f.GeomProperty != "" {
				// preserve the original property name alongside hasGeometry
				ts = append(ts, rdf.T(iri, rdf.IRI(ns+f.GeomProperty), node))
			}
		}
		if f.HasBounds {
			node := rdf.NewBlankNode()
			if ts, err = grdf.EncodeGeometry(ts, node, f.Bounds, f.SRSName); err != nil {
				return nil, fmt.Errorf("gml: feature %s bounds: %w", id, err)
			}
			ts = append(ts, rdf.T(iri, grdf.BoundedBy, node))
		}
		out = append(out, iri)
	}
	st.AddAll(ts)
	return out, nil
}

// FromGRDF extracts every feature of the given class (or every grdf:Feature
// subject when class is empty) back into a GML collection.
func FromGRDF(st *store.Store, class rdf.IRI) (*Collection, error) {
	var subjects []rdf.Term
	if class != "" {
		subjects = st.SubjectsOfType(class)
	} else {
		// Instances carry their domain class (app:ChemSite, …), which
		// NewFeature links under grdf:Feature; without a reasoning pass we
		// follow those declared subclass edges ourselves.
		seen := map[string]struct{}{}
		classes := append(st.Subjects(rdf.RDFSSubClassOf, grdf.Feature), rdf.Term(grdf.Feature))
		for _, c := range classes {
			for _, s := range st.SubjectsOfType(c) {
				k := s.String()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				subjects = append(subjects, s)
			}
		}
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].String() < subjects[j].String() })

	col := &Collection{}
	for _, s := range subjects {
		iri, ok := s.(rdf.IRI)
		if !ok {
			continue
		}
		f := Feature{
			ID:       iri.LocalName(),
			TypeName: featureTypeName(st, s),
		}
		// Simple literal properties outside the GRDF namespaces.
		props := st.Match(s, nil, nil)
		sort.Slice(props, func(i, j int) bool {
			if props[i].Predicate.String() != props[j].Predicate.String() {
				return props[i].Predicate.String() < props[j].Predicate.String()
			}
			return props[i].Object.String() < props[j].Object.String()
		})
		for _, t := range props {
			pred := t.Predicate.(rdf.IRI)
			if strings.HasPrefix(string(pred), grdf.NS) ||
				strings.HasPrefix(string(pred), grdf.TemporalNS) ||
				strings.HasPrefix(string(pred), rdf.RDFNS) ||
				strings.HasPrefix(string(pred), rdf.RDFSNS) {
				continue
			}
			lit, isLit := t.Object.(rdf.Literal)
			if !isLit {
				continue
			}
			f.Properties = append(f.Properties, Property{
				Name:      pred.LocalName(),
				Namespace: pred.Namespace(),
				Value:     lit.Value,
			})
		}
		if g, srs, err := grdf.GeometryOf(st, s); err == nil {
			f.Geometry, f.SRSName = g, srs
		}
		if env, ok := grdf.EnvelopeOfFeature(st, s); ok {
			f.Bounds, f.HasBounds = env, true
		}
		col.Features = append(col.Features, f)
	}
	return col, nil
}

// featureTypeName picks the most specific non-GRDF type's local name,
// falling back to "Feature".
func featureTypeName(st *store.Store, s rdf.Term) string {
	var classes []string
	for _, ty := range st.Objects(s, rdf.RDFType) {
		iri, ok := ty.(rdf.IRI)
		if !ok {
			continue
		}
		if strings.HasPrefix(string(iri), grdf.NS) || strings.HasPrefix(string(iri), rdf.OWLNS) {
			continue
		}
		classes = append(classes, iri.LocalName())
	}
	sort.Strings(classes)
	if len(classes) > 0 {
		return classes[0]
	}
	return "Feature"
}
