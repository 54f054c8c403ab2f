package owl

import (
	"slices"

	"repro/internal/store"
)

// rule names the rule family behind a derivation.
type rule uint8

const (
	ruleSubclass rule = iota
	ruleSubproperty
	ruleDomain
	ruleRange
	ruleEquivalentClass
	ruleEquivalentProperty
	ruleInverse
	ruleSameAs
	ruleUnion
	ruleIntersection
	ruleRestriction
	ruleTypePropagation
	rulePropertySemantics
)

var ruleNames = [...]string{
	ruleSubclass:           "subclass",
	ruleSubproperty:        "subproperty",
	ruleDomain:             "domain",
	ruleRange:              "range",
	ruleEquivalentClass:    "equivalent-class",
	ruleEquivalentProperty: "equivalent-property",
	ruleInverse:            "inverse",
	ruleSameAs:             "same-as",
	ruleUnion:              "union",
	ruleIntersection:       "intersection",
	ruleRestriction:        "restriction",
	ruleTypePropagation:    "type-propagation",
	rulePropertySemantics:  "property-semantics",
}

func (r rule) String() string { return ruleNames[r] }

// wild is the wildcard position of an ID pattern.
const wild = store.NoID

// each streams the round's version's matches of the ID pattern (NoID is a
// wildcard) to fn.
func (r *Reasoner) each(s, p, o store.ID, fn func(s, p, o store.ID)) {
	r.view.ForEachMatchIDs(s, p, o, func(s, p, o store.ID) bool {
		fn(s, p, o)
		return true
	})
}

// objects streams the objects of (s p ?).
func (r *Reasoner) objects(s, p store.ID, fn func(o store.ID)) {
	r.view.ForEachMatchIDs(s, p, wild, func(_, _, o store.ID) bool {
		fn(o)
		return true
	})
}

// subjects streams the subjects of (? p o).
func (r *Reasoner) subjects(p, o store.ID, fn func(s store.ID)) {
	r.view.ForEachMatchIDs(wild, p, o, func(s, _, _ store.ID) bool {
		fn(s)
		return true
	})
}

func (r *Reasoner) has(s, p, o store.ID) bool { return r.view.HasIDs(s, p, o) }

// applyRules fires every rule whose premises include the new triple t,
// joining against the round's version for the other premises.
func (r *Reasoner) applyRules(t [3]store.ID) {
	s, p, o := t[0], t[1], t[2]
	v := &r.v
	r.cur.trigger = t

	// --- rules keyed on the predicate of the new triple ---------------------
	switch p {
	case v.subClass:
		r.cur.rule = ruleSubclass
		// rdfs11: subclass transitivity (both join orders)
		r.objects(o, v.subClass, func(super store.ID) { r.emit(s, v.subClass, super) })
		r.subjects(v.subClass, s, func(sub store.ID) { r.emit(sub, v.subClass, o) })
		// rdfs9: retype existing instances; restriction semantics follow
		// from the new types in the next round.
		r.subjects(v.typ, s, func(inst store.ID) { r.emit(inst, v.typ, o) })

	case v.subProp:
		r.cur.rule = ruleSubproperty
		// rdfs5: subproperty transitivity
		r.objects(o, v.subProp, func(super store.ID) { r.emit(s, v.subProp, super) })
		r.subjects(v.subProp, s, func(sub store.ID) { r.emit(sub, v.subProp, o) })
		// rdfs7: propagate existing assertions of the subproperty
		r.each(wild, s, wild, func(x, _, y store.ID) { r.emit(x, o, y) })

	case v.domain:
		r.cur.rule = ruleDomain
		r.each(wild, s, wild, func(x, _, _ store.ID) { r.emit(x, v.typ, o) })

	case v.rng:
		r.cur.rule = ruleRange
		r.each(wild, s, wild, func(_, _, y store.ID) {
			if !r.lit(y) {
				r.emit(y, v.typ, o)
			}
		})

	case v.eqClass:
		r.cur.rule = ruleEquivalentClass
		// equivalent classes are mutual subclasses
		r.emit(s, v.subClass, o)
		r.emit(o, v.subClass, s)
		r.emit(o, v.eqClass, s)

	case v.eqProp:
		r.cur.rule = ruleEquivalentProperty
		r.emit(s, v.subProp, o)
		r.emit(o, v.subProp, s)
		r.emit(o, v.eqProp, s)

	case v.inverseOf:
		r.cur.rule = ruleInverse
		r.emit(o, v.inverseOf, s)
		r.each(wild, s, wild, func(x, _, y store.ID) { r.emit(y, o, x) })
		r.each(wild, o, wild, func(x, _, y store.ID) { r.emit(y, s, x) })

	case v.sameAs:
		r.cur.rule = ruleSameAs
		if r.lit(o) {
			break
		}
		r.emit(o, v.sameAs, s) // symmetry
		// transitivity
		r.objects(o, v.sameAs, func(third store.ID) {
			if !r.lit(third) && third != s {
				r.emit(s, v.sameAs, third)
			}
		})
		// substitution: copy statements between the equated individuals
		r.copyStatements(s, o)
		r.copyStatements(o, s)

	case v.unionOf:
		r.cur.rule = ruleUnion
		// Each member of the union is a subclass of the union class.
		for _, m := range r.list(o) {
			r.emit(m, v.subClass, s)
		}

	case v.intersectionOf:
		r.cur.rule = ruleIntersection
		// The intersection class is a subclass of each member, and any
		// individual already carrying every member type joins the class.
		members := r.list(o)
		for _, m := range members {
			if !r.lit(m) {
				r.emit(s, v.subClass, m)
			}
		}
		if len(members) > 0 {
			r.subjects(v.typ, members[0], func(x store.ID) {
				if r.hasAllTypes(x, members) {
					r.emit(x, v.typ, s)
				}
			})
		}

	// A restriction's schema may arrive after the data it classifies: each
	// of its triples completes the restriction with the others present.
	case v.onProperty:
		r.cur.rule = ruleRestriction
		r.objects(s, v.hasValue, func(hv store.ID) { r.hasValueRule(s, o, hv) })
		r.objects(s, v.allValuesFrom, func(d store.ID) { r.allValuesFromRule(s, o, d) })
		r.objects(s, v.someValuesFrom, func(d store.ID) { r.someValuesFromRule(s, o, d) })
	case v.hasValue:
		r.cur.rule = ruleRestriction
		r.objects(s, v.onProperty, func(q store.ID) { r.hasValueRule(s, q, o) })
	case v.allValuesFrom:
		r.cur.rule = ruleRestriction
		r.objects(s, v.onProperty, func(q store.ID) { r.allValuesFromRule(s, q, o) })
	case v.someValuesFrom:
		r.cur.rule = ruleRestriction
		r.objects(s, v.onProperty, func(q store.ID) { r.someValuesFromRule(s, q, o) })

	case v.typ:
		r.applyTypeRules(s, o)
		r.cur.rule = ruleSameAs
		r.substituteEndpoints(s, p, o)
		return
	}

	// --- rules keyed on any assertion (s p o): property semantics -----------
	r.applyPropertySemantics(s, p, o)
}

// applyTypeRules handles a new (ind rdf:type class) triple.
func (r *Reasoner) applyTypeRules(ind, class store.ID) {
	v := &r.v
	r.cur.rule = ruleTypePropagation
	// rdfs9 via existing subclass edges
	r.objects(class, v.subClass, func(super store.ID) { r.emit(ind, v.typ, super) })

	// intersection membership: acquiring one member type may complete the
	// set required by an owl:intersectionOf class. A class that heads no
	// list cell is a member of none.
	if r.view.EstimateIDs(wild, v.first, class) > 0 {
		r.each(wild, v.intersectionOf, wild, func(c, _, head store.ID) {
			members := r.list(head)
			if slices.Contains(members, class) && r.hasAllTypes(ind, members) {
				r.emit(ind, v.typ, c)
			}
		})
	}

	// owl:Restriction semantics when class is a restriction.
	r.objects(class, v.onProperty, func(p store.ID) {
		r.objects(class, v.hasValue, func(hv store.ID) { r.emit(ind, p, hv) })
		r.objects(class, v.allValuesFrom, func(d store.ID) { r.allValuesOf(ind, p, d) })
	})

	// Characteristic declarations: a property newly typed symmetric,
	// transitive or (inverse-)functional must reprocess its existing
	// assertions. Nesting the rules' own streams inside this one is safe:
	// nothing is committed until the round ends.
	switch class {
	case v.symmetric:
		r.each(wild, ind, wild, func(x, _, y store.ID) { r.symmetric(x, ind, y) })
	case v.transitive:
		r.each(wild, ind, wild, func(x, _, y store.ID) { r.transitive(x, ind, y) })
	case v.functional:
		r.each(wild, ind, wild, func(x, _, y store.ID) { r.functional(x, ind, y) })
	case v.inverseFunctional:
		r.each(wild, ind, wild, func(x, _, y store.ID) { r.inverseFunctional(x, ind, y) })
	}

	// someValuesFrom: (x p ind), ind:class, Restriction(p, someValuesFrom
	// class) => x : Restriction
	r.subjects(v.someValuesFrom, class, func(restr store.ID) {
		r.objects(restr, v.onProperty, func(p store.ID) {
			r.subjects(p, ind, func(x store.ID) { r.emit(x, v.typ, restr) })
		})
	})
}

// hasValueRule fires Restriction(p, hasValue val) both ways: its members
// have the value, and whatever has the value is a member.
func (r *Reasoner) hasValueRule(restr, p, val store.ID) {
	r.subjects(r.v.typ, restr, func(x store.ID) { r.emit(x, p, val) })
	r.subjects(p, val, func(x store.ID) { r.emit(x, r.v.typ, restr) })
}

// allValuesFromRule fires Restriction(p, allValuesFrom d): every p-value of
// a member is a d.
func (r *Reasoner) allValuesFromRule(restr, p, d store.ID) {
	r.subjects(r.v.typ, restr, func(x store.ID) { r.allValuesOf(x, p, d) })
}

// allValuesOf types every non-literal p-value of x as d.
func (r *Reasoner) allValuesOf(x, p, d store.ID) {
	r.objects(x, p, func(y store.ID) {
		if !r.lit(y) {
			r.emit(y, r.v.typ, d)
		}
	})
}

// someValuesFromRule fires Restriction(p, someValuesFrom d): whatever has a
// p-value that is a d is a member.
func (r *Reasoner) someValuesFromRule(restr, p, d store.ID) {
	r.subjects(r.v.typ, d, func(y store.ID) {
		r.subjects(p, y, func(x store.ID) { r.emit(x, r.v.typ, restr) })
	})
}

// applyPropertySemantics fires rules for an arbitrary assertion (s p o).
func (r *Reasoner) applyPropertySemantics(s, p, o store.ID) {
	v := &r.v
	r.cur.rule = rulePropertySemantics
	objLit := r.lit(o)

	// rdfs7: propagate to superproperties
	r.objects(p, v.subProp, func(super store.ID) {
		if super != p {
			r.emit(s, super, o)
		}
	})
	// rdfs2: domain
	r.objects(p, v.domain, func(dom store.ID) { r.emit(s, v.typ, dom) })
	if !objLit {
		// rdfs3: range
		r.objects(p, v.rng, func(rng store.ID) { r.emit(o, v.typ, rng) })
		// inverse
		r.objects(p, v.inverseOf, func(inv store.ID) { r.emit(o, inv, s) })
		r.subjects(v.inverseOf, p, func(inv store.ID) { r.emit(o, inv, s) })
	}
	if r.has(p, v.typ, v.symmetric) {
		r.symmetric(s, p, o)
	}
	if r.has(p, v.typ, v.transitive) {
		r.transitive(s, p, o)
	}
	if r.has(p, v.typ, v.functional) {
		r.functional(s, p, o)
	}
	if r.has(p, v.typ, v.inverseFunctional) {
		r.inverseFunctional(s, p, o)
	}
	// hasValue (entry direction): (s p v), Restriction(p, hasValue v) => s : R
	r.subjects(v.hasValue, o, func(restr store.ID) {
		if r.has(restr, v.onProperty, p) {
			r.emit(s, v.typ, restr)
		}
	})
	if !objLit {
		// someValuesFrom (entry direction): (s p o), o : d,
		// Restriction(p, some d) => s : R
		r.objects(o, v.typ, func(d store.ID) {
			r.subjects(v.someValuesFrom, d, func(restr store.ID) {
				if r.has(restr, v.onProperty, p) {
					r.emit(s, v.typ, restr)
				}
			})
		})
		// allValuesFrom (propagation direction): s : Restriction(p, all d)
		// => o : d
		r.objects(s, v.typ, func(cls store.ID) {
			if r.has(cls, v.onProperty, p) {
				r.objects(cls, v.allValuesFrom, func(d store.ID) { r.emit(o, v.typ, d) })
			}
		})
	}
	r.substituteEndpoints(s, p, o)
}

// substituteEndpoints copies (s p o) onto every owl:sameAs alias of either
// endpoint.
func (r *Reasoner) substituteEndpoints(s, p, o store.ID) {
	r.objects(s, r.v.sameAs, func(alias store.ID) {
		if !r.lit(alias) {
			r.emit(alias, p, o)
		}
	})
	if !r.lit(o) {
		r.objects(o, r.v.sameAs, func(alias store.ID) {
			if !r.lit(alias) {
				r.emit(s, p, alias)
			}
		})
	}
}

// symmetric mirrors (s p o) through a symmetric property.
func (r *Reasoner) symmetric(s, p, o store.ID) {
	if !r.lit(o) {
		r.emit(o, p, s)
	}
}

// transitive extends chains through a transitive property for the
// assertion (s p o).
func (r *Reasoner) transitive(s, p, o store.ID) {
	if !r.lit(o) {
		r.objects(o, p, func(z store.ID) { r.emit(s, p, z) })
	}
	r.subjects(p, s, func(x store.ID) { r.emit(x, p, o) })
}

// functional equates the other values of s under a functional property
// with o.
func (r *Reasoner) functional(s, p, o store.ID) {
	if r.lit(o) {
		return
	}
	r.objects(s, p, func(y store.ID) {
		if y != o && !r.lit(y) {
			r.emit(o, r.v.sameAs, y)
		}
	})
}

// inverseFunctional equates the other subjects sharing o under an inverse
// functional property with s.
func (r *Reasoner) inverseFunctional(s, p, o store.ID) {
	if r.lit(o) {
		return
	}
	r.subjects(p, o, func(x store.ID) {
		if x != s {
			r.emit(s, r.v.sameAs, x)
		}
	})
}

// list reads an rdf:first/rdf:rest collection from the round's version.
func (r *Reasoner) list(head store.ID) []store.ID {
	var out, cells []store.ID
	for cur := head; cur != r.v.listNil; {
		if slices.Contains(cells, cur) {
			return out // cycle guard
		}
		cells = append(cells, cur)
		first, ok := r.firstObject(cur, r.v.first)
		if !ok {
			return out
		}
		out = append(out, first)
		if cur, ok = r.firstObject(cur, r.v.rest); !ok {
			return out
		}
	}
	return out
}

// firstObject returns one object of (s p ?), if any.
func (r *Reasoner) firstObject(s, p store.ID) (o store.ID, ok bool) {
	r.view.ForEachMatchIDs(s, p, wild, func(_, _, obj store.ID) bool {
		o, ok = obj, true
		return false
	})
	return o, ok
}

// hasAllTypes reports whether ind carries every type in classes.
func (r *Reasoner) hasAllTypes(ind store.ID, classes []store.ID) bool {
	for _, c := range classes {
		if !r.has(ind, r.v.typ, c) {
			return false
		}
	}
	return len(classes) > 0
}

// copyStatements replicates statements of a onto b (sameAs substitution).
func (r *Reasoner) copyStatements(a, b store.ID) {
	if a == b {
		return
	}
	r.each(a, wild, wild, func(_, p, o store.ID) {
		if p != r.v.sameAs {
			r.emit(b, p, o)
		}
	})
	r.each(wild, wild, a, func(x, p, _ store.ID) {
		if p != r.v.sameAs {
			r.emit(x, p, b)
		}
	})
}
