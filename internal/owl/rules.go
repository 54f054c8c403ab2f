package owl

import (
	"repro/internal/rdf"
)

// applyRules fires every rule whose premises include the new triple t,
// joining against the already-materialized store for the other premises.
func (r *Reasoner) applyRules(t rdf.Triple) {
	s, p, o := t.Subject, t.Predicate, t.Object
	r.curTrigger = t

	// --- rules keyed on the predicate of the new triple ---------------------
	switch p {
	case rdf.RDFSSubClassOf:
		r.curRule = "subclass"
		// rdfs11: subclass transitivity (both join orders)
		for _, super := range r.st.Objects(o, rdf.RDFSSubClassOf) {
			r.emit(rdf.T(s, rdf.RDFSSubClassOf, super))
		}
		for _, sub := range r.st.Subjects(rdf.RDFSSubClassOf, s) {
			r.emit(rdf.T(sub, rdf.RDFSSubClassOf, o))
		}
		// rdfs9: retype existing instances
		for _, inst := range r.st.Subjects(rdf.RDFType, s) {
			r.emit(rdf.T(inst, rdf.RDFType, o))
		}
		// restriction semantics may be unlocked by new subclass edges
		r.applyRestrictionForClassEdge(s, o)

	case rdf.RDFSSubPropertyOf:
		r.curRule = "subproperty"
		// rdfs5: subproperty transitivity
		for _, super := range r.st.Objects(o, rdf.RDFSSubPropertyOf) {
			r.emit(rdf.T(s, rdf.RDFSSubPropertyOf, super))
		}
		for _, sub := range r.st.Subjects(rdf.RDFSSubPropertyOf, s) {
			r.emit(rdf.T(sub, rdf.RDFSSubPropertyOf, o))
		}
		// rdfs7: propagate existing assertions of the subproperty
		if sp, ok := s.(rdf.IRI); ok {
			if op, ok2 := o.(rdf.IRI); ok2 {
				r.st.ForEachMatch(nil, sp, nil, func(u rdf.Triple) bool {
					r.emit(rdf.T(u.Subject, op, u.Object))
					return true
				})
			}
		}

	case rdf.RDFSDomain:
		r.curRule = "domain"
		if sp, ok := s.(rdf.IRI); ok {
			r.st.ForEachMatch(nil, sp, nil, func(u rdf.Triple) bool {
				r.emit(rdf.T(u.Subject, rdf.RDFType, o))
				return true
			})
		}

	case rdf.RDFSRange:
		r.curRule = "range"
		if sp, ok := s.(rdf.IRI); ok {
			r.st.ForEachMatch(nil, sp, nil, func(u rdf.Triple) bool {
				if u.Object.Kind() != rdf.KindLiteral {
					r.emit(rdf.T(u.Object, rdf.RDFType, o))
				}
				return true
			})
		}

	case rdf.OWLEquivalentClass:
		r.curRule = "equivalent-class"
		// equivalent classes are mutual subclasses
		r.emit(rdf.T(s, rdf.RDFSSubClassOf, o))
		if o.Kind() != rdf.KindLiteral {
			r.emit(rdf.T(o, rdf.RDFSSubClassOf, s))
			r.emit(rdf.T(o, rdf.OWLEquivalentClass, s))
		}

	case rdf.OWLEquivalentProperty:
		r.curRule = "equivalent-property"
		r.emit(rdf.T(s, rdf.RDFSSubPropertyOf, o))
		if o.Kind() != rdf.KindLiteral {
			r.emit(rdf.T(o, rdf.RDFSSubPropertyOf, s))
			r.emit(rdf.T(o, rdf.OWLEquivalentProperty, s))
		}

	case rdf.OWLInverseOf:
		r.curRule = "inverse"
		if o.Kind() == rdf.KindLiteral {
			break
		}
		r.emit(rdf.T(o, rdf.OWLInverseOf, s))
		sp, sok := s.(rdf.IRI)
		op, ook := o.(rdf.IRI)
		if sok && ook {
			r.st.ForEachMatch(nil, sp, nil, func(u rdf.Triple) bool {
				if u.Object.Kind() != rdf.KindLiteral {
					r.emit(rdf.T(u.Object, op, u.Subject))
				}
				return true
			})
			r.st.ForEachMatch(nil, op, nil, func(u rdf.Triple) bool {
				if u.Object.Kind() != rdf.KindLiteral {
					r.emit(rdf.T(u.Object, sp, u.Subject))
				}
				return true
			})
		}

	case rdf.OWLSameAs:
		r.curRule = "same-as"
		if o.Kind() == rdf.KindLiteral {
			break
		}
		r.emit(rdf.T(o, rdf.OWLSameAs, s)) // symmetry
		// transitivity
		for _, third := range r.st.Objects(o, rdf.OWLSameAs) {
			if third.Kind() != rdf.KindLiteral && !third.Equal(s) {
				r.emit(rdf.T(s, rdf.OWLSameAs, third))
			}
		}
		// substitution: copy statements between the equated individuals
		r.copyStatements(s, o)
		r.copyStatements(o, s)

	case rdf.OWLUnionOf:
		r.curRule = "union"
		// Each member of the union is a subclass of the union class.
		for _, m := range r.storeList(o) {
			if m.Kind() != rdf.KindLiteral {
				r.emit(rdf.T(m, rdf.RDFSSubClassOf, s))
			}
		}

	case rdf.OWLIntersectionOf:
		r.curRule = "intersection"
		// The intersection class is a subclass of each member, and any
		// individual already carrying every member type joins the class.
		members := r.storeList(o)
		for _, m := range members {
			if m.Kind() != rdf.KindLiteral {
				r.emit(rdf.T(s, rdf.RDFSSubClassOf, m))
			}
		}
		if len(members) > 0 {
			for _, x := range r.st.Subjects(rdf.RDFType, members[0]) {
				if r.hasAllTypes(x, members) {
					r.emit(rdf.T(x, rdf.RDFType, s))
				}
			}
		}

	case rdf.RDFType:
		r.applyTypeRules(s, o)
		return
	}

	// --- rules keyed on any assertion (s p o): property semantics -----------
	r.applyPropertySemantics(t)
}

// applyTypeRules handles a new (ind rdf:type class) triple.
func (r *Reasoner) applyTypeRules(ind, class rdf.Term) {
	r.curRule = "type-propagation"
	// rdfs9 via existing subclass edges
	for _, super := range r.st.Objects(class, rdf.RDFSSubClassOf) {
		r.emit(rdf.T(ind, rdf.RDFType, super))
	}

	// intersection membership: acquiring one member type may complete the
	// set required by an owl:intersectionOf class.
	for _, t := range r.st.Match(nil, rdf.OWLIntersectionOf, nil) {
		members := r.storeList(t.Object)
		relevant := false
		for _, m := range members {
			if m.Equal(class) {
				relevant = true
				break
			}
		}
		if relevant && r.hasAllTypes(ind, members) {
			r.emit(rdf.T(ind, rdf.RDFType, t.Subject))
		}
	}

	// owl:Restriction semantics when class is (or leads to) a restriction.
	r.applyRestrictionMembership(ind, class)

	// Characteristic declarations: a property newly typed symmetric or
	// transitive must reprocess its existing assertions.
	switch class {
	case rdf.OWLSymmetricProperty:
		if p, ok := ind.(rdf.IRI); ok {
			r.st.ForEachMatch(nil, p, nil, func(u rdf.Triple) bool {
				if u.Object.Kind() != rdf.KindLiteral {
					r.emit(rdf.T(u.Object, p, u.Subject))
				}
				return true
			})
		}
	case rdf.OWLTransitiveProperty:
		if p, ok := ind.(rdf.IRI); ok {
			// Nesting applyTransitive's own streams inside this one is safe:
			// nothing is committed until the round ends.
			r.st.ForEachMatch(nil, p, nil, func(u rdf.Triple) bool {
				r.applyTransitive(p, u)
				return true
			})
		}
	}

	// someValuesFrom: (x p ind), ind:class, Restriction(p, someValuesFrom
	// class) => x : Restriction
	for _, restr := range r.st.Subjects(rdf.OWLSomeValuesFrom, class) {
		onProp, ok := r.st.FirstObject(restr, rdf.OWLOnProperty)
		if !ok {
			continue
		}
		p, ok := onProp.(rdf.IRI)
		if !ok {
			continue
		}
		r.st.ForEachMatch(nil, p, ind, func(u rdf.Triple) bool {
			r.emit(rdf.T(u.Subject, rdf.RDFType, restr))
			return true
		})
	}
}

// applyRestrictionMembership fires restriction class rules for an individual
// that just acquired a type.
func (r *Reasoner) applyRestrictionMembership(ind, class rdf.Term) {
	onProp, ok := r.st.FirstObject(class, rdf.OWLOnProperty)
	if !ok {
		return
	}
	p, ok := onProp.(rdf.IRI)
	if !ok {
		return
	}
	// hasValue: membership implies the value
	if hv, ok := r.st.FirstObject(class, rdf.OWLHasValue); ok {
		r.emit(rdf.T(ind, p, hv))
	}
	// allValuesFrom: every value gets typed
	if av, ok := r.st.FirstObject(class, rdf.OWLAllValuesFrom); ok {
		r.st.ForEachMatch(ind, p, nil, func(u rdf.Triple) bool {
			if u.Object.Kind() != rdf.KindLiteral {
				r.emit(rdf.T(u.Object, rdf.RDFType, av))
			}
			return true
		})
	}
}

// applyRestrictionForClassEdge handles new subclass edges into restriction
// classes: members of sub must satisfy the restriction semantics of sup.
func (r *Reasoner) applyRestrictionForClassEdge(sub, sup rdf.Term) {
	if _, ok := r.st.FirstObject(sup, rdf.OWLOnProperty); !ok {
		return
	}
	for _, inst := range r.st.Subjects(rdf.RDFType, sub) {
		r.applyRestrictionMembership(inst, sup)
	}
}

// applyPropertySemantics fires rules for an arbitrary assertion (s p o).
func (r *Reasoner) applyPropertySemantics(t rdf.Triple) {
	r.curRule = "property-semantics"
	p, ok := t.Predicate.(rdf.IRI)
	if !ok {
		return
	}
	s, o := t.Subject, t.Object

	// rdfs7: propagate to superproperties
	for _, superP := range r.st.Objects(p, rdf.RDFSSubPropertyOf) {
		if sp, ok := superP.(rdf.IRI); ok && sp != p {
			r.emit(rdf.T(s, sp, o))
		}
	}
	// rdfs2: domain
	for _, dom := range r.st.Objects(p, rdf.RDFSDomain) {
		r.emit(rdf.T(s, rdf.RDFType, dom))
	}
	// rdfs3: range
	if o.Kind() != rdf.KindLiteral {
		for _, rng := range r.st.Objects(p, rdf.RDFSRange) {
			r.emit(rdf.T(o, rdf.RDFType, rng))
		}
	}
	// inverse
	for _, inv := range r.st.Objects(p, rdf.OWLInverseOf) {
		if ip, ok := inv.(rdf.IRI); ok && o.Kind() != rdf.KindLiteral {
			r.emit(rdf.T(o, ip, s))
		}
	}
	for _, inv := range r.st.Subjects(rdf.OWLInverseOf, p) {
		if ip, ok := inv.(rdf.IRI); ok && o.Kind() != rdf.KindLiteral {
			r.emit(rdf.T(o, ip, s))
		}
	}
	// symmetric
	if r.st.Has(rdf.T(p, rdf.RDFType, rdf.OWLSymmetricProperty)) && o.Kind() != rdf.KindLiteral {
		r.emit(rdf.T(o, p, s))
	}
	// transitive
	if r.st.Has(rdf.T(p, rdf.RDFType, rdf.OWLTransitiveProperty)) {
		r.applyTransitive(p, t)
	}
	// functional: two values for one subject are the same individual
	if r.st.Has(rdf.T(p, rdf.RDFType, rdf.OWLFunctionalProperty)) && o.Kind() != rdf.KindLiteral {
		r.st.ForEachMatch(s, p, nil, func(u rdf.Triple) bool {
			if !u.Object.Equal(o) && u.Object.Kind() != rdf.KindLiteral {
				r.emit(rdf.T(o, rdf.OWLSameAs, u.Object))
			}
			return true
		})
	}
	// inverse functional: two subjects sharing a value are the same
	if r.st.Has(rdf.T(p, rdf.RDFType, rdf.OWLInverseFunctional)) && o.Kind() != rdf.KindLiteral {
		r.st.ForEachMatch(nil, p, o, func(u rdf.Triple) bool {
			if !u.Subject.Equal(s) {
				r.emit(rdf.T(s, rdf.OWLSameAs, u.Subject))
			}
			return true
		})
	}
	// hasValue (entry direction): (s p v), Restriction(p, hasValue v) => s : R
	for _, restr := range r.st.Subjects(rdf.OWLHasValue, o) {
		if rp, ok := r.st.FirstObject(restr, rdf.OWLOnProperty); ok && rp.Equal(p) {
			r.emit(rdf.T(s, rdf.RDFType, restr))
		}
	}
	// someValuesFrom (entry direction): (s p o), o : d, Restriction(p, some d)
	if o.Kind() != rdf.KindLiteral {
		for _, d := range r.st.Objects(o, rdf.RDFType) {
			for _, restr := range r.st.Subjects(rdf.OWLSomeValuesFrom, d) {
				if rp, ok := r.st.FirstObject(restr, rdf.OWLOnProperty); ok && rp.Equal(p) {
					r.emit(rdf.T(s, rdf.RDFType, restr))
				}
			}
		}
	}
	// allValuesFrom (propagation direction): s : Restriction(p, all d) => o : d
	if o.Kind() != rdf.KindLiteral {
		for _, cls := range r.st.Objects(s, rdf.RDFType) {
			if av, ok := r.st.FirstObject(cls, rdf.OWLAllValuesFrom); ok {
				if rp, ok2 := r.st.FirstObject(cls, rdf.OWLOnProperty); ok2 && rp.Equal(p) {
					r.emit(rdf.T(o, rdf.RDFType, av))
				}
			}
		}
	}
	// sameAs substitution on endpoints
	for _, alias := range r.st.Objects(s, rdf.OWLSameAs) {
		if alias.Kind() != rdf.KindLiteral {
			r.emit(rdf.T(alias, p, o))
		}
	}
	if o.Kind() != rdf.KindLiteral {
		for _, alias := range r.st.Objects(o, rdf.OWLSameAs) {
			if alias.Kind() != rdf.KindLiteral {
				r.emit(rdf.T(s, p, alias))
			}
		}
	}
}

// applyTransitive extends chains through a transitive property for the new
// assertion u = (s p o).
func (r *Reasoner) applyTransitive(p rdf.IRI, u rdf.Triple) {
	if u.Object.Kind() != rdf.KindLiteral {
		r.st.ForEachMatch(u.Object, p, nil, func(v rdf.Triple) bool {
			r.emit(rdf.T(u.Subject, p, v.Object))
			return true
		})
	}
	r.st.ForEachMatch(nil, p, u.Subject, func(v rdf.Triple) bool {
		r.emit(rdf.T(v.Subject, p, u.Object))
		return true
	})
}

// storeList reads an rdf:first/rdf:rest collection from the store.
func (r *Reasoner) storeList(head rdf.Term) []rdf.Term {
	var out []rdf.Term
	seen := map[string]struct{}{}
	cur := head
	for {
		if cur == nil || cur.Equal(rdf.RDFNil) {
			return out
		}
		k := cur.String()
		if _, dup := seen[k]; dup {
			return out // cycle guard
		}
		seen[k] = struct{}{}
		first, ok := r.st.FirstObject(cur, rdf.RDFFirst)
		if !ok {
			return out
		}
		out = append(out, first)
		rest, ok := r.st.FirstObject(cur, rdf.RDFRest)
		if !ok {
			return out
		}
		cur = rest
	}
}

// hasAllTypes reports whether ind carries every type in classes.
func (r *Reasoner) hasAllTypes(ind rdf.Term, classes []rdf.Term) bool {
	for _, c := range classes {
		if !r.st.Has(rdf.T(ind, rdf.RDFType, c)) {
			return false
		}
	}
	return len(classes) > 0
}

// copyStatements replicates statements of a onto b (sameAs substitution).
func (r *Reasoner) copyStatements(a, b rdf.Term) {
	if a.Equal(b) {
		return
	}
	r.st.ForEachMatch(a, nil, nil, func(u rdf.Triple) bool {
		if !u.Predicate.Equal(rdf.OWLSameAs) {
			r.emit(rdf.T(b, u.Predicate, u.Object))
		}
		return true
	})
	r.st.ForEachMatch(nil, nil, a, func(u rdf.Triple) bool {
		if !u.Predicate.Equal(rdf.OWLSameAs) {
			r.emit(rdf.T(u.Subject, u.Predicate, b))
		}
		return true
	})
}
