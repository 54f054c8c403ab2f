package turtle

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/rdf"
)

// isomorphic reports whether g and h are the same graph up to a renaming of
// blank nodes: the same ground triples, and a bijection of their blank nodes
// that maps every other triple of g onto one of h. Blank nodes are coloured
// by their neighbourhoods, refined a few rounds, and the bijection is searched
// within colours.
func isomorphic(g, h *rdf.Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	cg, ch := blankColours(g), blankColours(h)
	if len(cg) != len(ch) {
		return false
	}
	for _, t := range g.Triples() {
		if !isBlank(t.Subject) && !isBlank(t.Object) && !h.Has(t) {
			return false
		}
	}
	var blanks []rdf.BlankNode
	for b := range cg {
		blanks = append(blanks, b)
	}
	slices.Sort(blanks)
	to := map[rdf.BlankNode]rdf.BlankNode{}
	taken := map[rdf.BlankNode]bool{}
	mapped := func(t rdf.Term) (rdf.Term, bool) {
		if b, ok := t.(rdf.BlankNode); ok {
			m, ok := to[b]
			return m, ok
		}
		return t, true
	}
	// fits reports whether every triple of g about b whose blank nodes are
	// all mapped maps onto a triple of h.
	fits := func(b rdf.BlankNode) bool {
		for _, t := range g.Triples() {
			if t.Subject != b && t.Object != b {
				continue
			}
			s, ok1 := mapped(t.Subject)
			o, ok2 := mapped(t.Object)
			if ok1 && ok2 && !h.Has(rdf.T(s, t.Predicate, o)) {
				return false
			}
		}
		return true
	}
	var search func(i int) bool
	search = func(i int) bool {
		if i == len(blanks) {
			return true
		}
		b := blanks[i]
		for c, col := range ch {
			if taken[c] || col != cg[b] {
				continue
			}
			to[b], taken[c] = c, true
			if fits(b) && search(i+1) {
				return true
			}
			delete(to, b)
			delete(taken, c)
		}
		return false
	}
	return search(0)
}

func isBlank(t rdf.Term) bool { _, ok := t.(rdf.BlankNode); return ok }

// blankColours colours every blank node of g by what it is linked to, over
// four rounds of refinement.
func blankColours(g *rdf.Graph) map[rdf.BlankNode]uint64 {
	col := map[rdf.BlankNode]uint64{}
	for _, t := range g.Triples() {
		for _, x := range []rdf.Term{t.Subject, t.Object} {
			if b, ok := x.(rdf.BlankNode); ok {
				col[b] = 0
			}
		}
	}
	name := func(x rdf.Term) string {
		if b, ok := x.(rdf.BlankNode); ok {
			return fmt.Sprint("_", col[b])
		}
		return x.String()
	}
	for range 4 {
		edges := map[rdf.BlankNode][]string{}
		for _, t := range g.Triples() {
			if b, ok := t.Subject.(rdf.BlankNode); ok {
				edges[b] = append(edges[b], "out "+t.Predicate.String()+" "+name(t.Object))
			}
			if b, ok := t.Object.(rdf.BlankNode); ok {
				edges[b] = append(edges[b], "in "+t.Predicate.String()+" "+name(t.Subject))
			}
		}
		next := map[rdf.BlankNode]uint64{}
		for b := range col {
			slices.Sort(edges[b])
			hs := fnv.New64a()
			hs.Write([]byte(strings.Join(edges[b], "\n")))
			next[b] = hs.Sum64()
		}
		col = next
	}
	return col
}
