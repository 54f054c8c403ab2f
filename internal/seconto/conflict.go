package seconto

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rdf"
)

// Conflict detection. Section 7: "In the case of multiple geospatial data
// servers, each node may enforce its own set of policies … If the
// combination of policies from participating systems is inconsistent,
// additional rules may be needed to resolve conflicts." Merge combines
// per-server policy sets; DetectConflicts finds the places where the
// combined set is ambiguous (same subject, action and resource, opposite
// decisions, equal priority), and Resolve applies a chosen strategy by
// synthesizing the "additional rules" — priority bumps — that disambiguate.

// Conflict reports one ambiguous policy pair.
type Conflict struct {
	Subject  rdf.IRI
	Action   rdf.IRI
	Resource rdf.IRI
	// Permit and Deny are the clashing policy IDs.
	Permit rdf.IRI
	Deny   rdf.IRI
	// Overlap describes the contested properties: empty means whole-resource.
	Overlap []rdf.IRI
}

func (c Conflict) String() string {
	return fmt.Sprintf("conflict: %s/%s on %s: %s permits what %s denies",
		c.Subject.LocalName(), c.Action.LocalName(), c.Resource.LocalName(),
		c.Permit.LocalName(), c.Deny.LocalName())
}

// Merge concatenates policy sets from multiple servers into one.
func Merge(sets ...*Set) *Set {
	out := &Set{}
	for _, s := range sets {
		if s != nil {
			out.Rules = append(out.Rules, s.Rules...)
		}
	}
	return out
}

// DetectConflicts finds permit/deny pairs with the same subject, action and
// resource at equal priority whose property scopes overlap. (Pairs at
// different priorities are already resolved by the decision engine.)
func (s *Set) DetectConflicts() []Conflict {
	var out []Conflict
	for i, a := range s.Rules {
		if !a.Permit {
			continue
		}
		for j, b := range s.Rules {
			if i == j || b.Permit {
				continue
			}
			if a.Subject != b.Subject || a.Action != b.Action || a.Resource != b.Resource {
				continue
			}
			if a.Priority != b.Priority {
				continue
			}
			overlap, contested := propertyOverlap(a.Properties, b.Properties)
			if !contested {
				continue
			}
			out = append(out, Conflict{
				Subject: a.Subject, Action: a.Action, Resource: a.Resource,
				Permit: a.ID, Deny: b.ID, Overlap: overlap,
			})
		}
	}
	slices.SortFunc(out, func(a, b Conflict) int {
		return cmp.Or(cmp.Compare(a.Permit, b.Permit), cmp.Compare(a.Deny, b.Deny))
	})
	return out
}

// propertyOverlap reports the contested properties between a permit scope
// and a deny scope. Empty scope = whole resource.
func propertyOverlap(permit, deny []rdf.IRI) (overlap []rdf.IRI, contested bool) {
	switch {
	case len(permit) == 0 && len(deny) == 0:
		return nil, true // full permit vs full deny
	case len(permit) == 0:
		return append([]rdf.IRI(nil), deny...), true // full permit vs partial deny
	case len(deny) == 0:
		return append([]rdf.IRI(nil), permit...), true // partial permit vs full deny
	}
	for _, p := range permit {
		if slices.Contains(deny, p) {
			overlap = append(overlap, p)
		}
	}
	slices.Sort(overlap)
	return overlap, len(overlap) > 0
}

// Strategy selects how Resolve disambiguates conflicts.
type Strategy uint8

const (
	// DenyWins raises each conflicting deny rule above its permit.
	DenyWins Strategy = iota
	// PermitWins raises each conflicting permit rule above its deny.
	PermitWins
)

// Resolve returns a copy of the set with priorities adjusted so that
// DetectConflicts on the result is empty. The input set is unchanged.
func (s *Set) Resolve(strategy Strategy) *Set {
	out := &Set{Rules: append([]Rule(nil), s.Rules...)}
	for {
		conflicts := out.DetectConflicts()
		if len(conflicts) == 0 {
			return out
		}
		for _, c := range conflicts {
			var winner rdf.IRI
			if strategy == DenyWins {
				winner = c.Deny
			} else {
				winner = c.Permit
			}
			for i := range out.Rules {
				if out.Rules[i].ID == winner {
					out.Rules[i].Priority++
				}
			}
		}
	}
}
