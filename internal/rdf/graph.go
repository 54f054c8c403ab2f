package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Graph is a simple unindexed set of triples with value semantics, useful for
// building small documents (ontology fragments, query results) before loading
// them into the indexed store. Iteration order over Triples() is insertion
// order, which keeps serializer output stable.
type Graph struct {
	triples []Triple
	present map[Triple]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{present: make(map[Triple]struct{})}
}

// GraphOf builds a graph from the given triples (duplicates collapsed).
func GraphOf(ts ...Triple) *Graph {
	g := NewGraph()
	for _, t := range ts {
		g.Add(t)
	}
	return g
}

// Add inserts t; it reports whether the triple was new.
func (g *Graph) Add(t Triple) bool {
	if !t.Valid() {
		return false
	}
	if _, ok := g.present[t]; ok {
		return false
	}
	g.present[t] = struct{}{}
	g.triples = append(g.triples, t)
	return true
}

// AddAll inserts every triple of h into g and returns the count of new triples.
func (g *Graph) AddAll(h *Graph) int {
	n := 0
	for _, t := range h.triples {
		if g.Add(t) {
			n++
		}
	}
	return n
}

// Remove deletes t; it reports whether the triple was present.
func (g *Graph) Remove(t Triple) bool {
	if _, ok := g.present[t]; !ok {
		return false
	}
	delete(g.present, t)
	for i, u := range g.triples {
		if u == t {
			g.triples = append(g.triples[:i], g.triples[i+1:]...)
			break
		}
	}
	return true
}

// Has reports whether t is in the graph.
func (g *Graph) Has(t Triple) bool {
	_, ok := g.present[t]
	return ok
}

// Len returns the number of triples.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns the triples in insertion order. The slice is shared; do not
// mutate it.
func (g *Graph) Triples() []Triple { return g.triples }

// Match returns all triples matching the pattern; nil terms are wildcards.
func (g *Graph) Match(s, p, o Term) []Triple {
	var out []Triple
	for _, t := range g.triples {
		if (s == nil || t.Subject.Equal(s)) &&
			(p == nil || t.Predicate.Equal(p)) &&
			(o == nil || t.Object.Equal(o)) {
			out = append(out, t)
		}
	}
	return out
}

// Objects returns the distinct objects of triples (s, p, *) in insertion order.
func (g *Graph) Objects(s, p Term) []Term {
	var out []Term
	seen := map[string]struct{}{}
	for _, t := range g.Match(s, p, nil) {
		k := t.Object.String()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, t.Object)
		}
	}
	return out
}

// FirstObject returns the object of the first triple matching (s, p, *).
func (g *Graph) FirstObject(s, p Term) (Term, bool) {
	for _, t := range g.triples {
		if t.Subject.Equal(s) && t.Predicate.Equal(p) {
			return t.Object, true
		}
	}
	return nil, false
}

// Subjects returns the distinct subjects of triples (*, p, o).
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	seen := map[string]struct{}{}
	for _, t := range g.Match(nil, p, o) {
		k := t.Subject.String()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, t.Subject)
		}
	}
	return out
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	h := NewGraph()
	for _, t := range g.triples {
		h.Add(t)
	}
	return h
}

// Equal reports whether both graphs contain exactly the same triple set
// (ground comparison; blank-node isomorphism is not attempted).
func (g *Graph) Equal(h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	for t := range g.present {
		if !h.Has(t) {
			return false
		}
	}
	return true
}

// Diff returns the triples present in g but not h.
func (g *Graph) Diff(h *Graph) []Triple {
	var out []Triple
	for _, t := range g.triples {
		if !h.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the graph as sorted N-Triples, handy in tests and error
// messages.
func (g *Graph) String() string {
	lines := make([]string, 0, len(g.triples))
	for _, t := range g.triples {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// blankCounter feeds NewBlankNode with process-unique labels.
var blankCounter atomic.Uint64

// NewBlankNode returns a fresh blank node with a process-unique label.
func NewBlankNode() BlankNode {
	return BlankNode(fmt.Sprintf("b%d", blankCounter.Add(1)))
}

// List encodes a Go slice of terms as an RDF collection (rdf:first/rdf:rest)
// rooted at the returned head term, adding the cell triples to g. An empty
// slice yields rdf:nil.
func (g *Graph) List(items []Term) Term {
	return EmitList(items, NewBlankNode, func(t Triple) { g.Add(t) })
}

// EmitList is List taking its cells from fresh and handing the cell triples
// to emit, head cell first.
func EmitList(items []Term, fresh func() BlankNode, emit func(Triple)) Term {
	if len(items) == 0 {
		return RDFNil
	}
	head := Term(fresh())
	cur := head
	for i, it := range items {
		emit(T(cur, RDFFirst, it))
		if i == len(items)-1 {
			emit(T(cur, RDFRest, RDFNil))
		} else {
			next := Term(fresh())
			emit(T(cur, RDFRest, next))
			cur = next
		}
	}
	return head
}

// ReadList decodes the RDF collection rooted at head. It stops (returning
// what it has plus an error) on malformed cells or cycles.
func (g *Graph) ReadList(head Term) ([]Term, error) {
	var out []Term
	seen := map[string]struct{}{}
	cur := head
	for {
		if cur.Equal(RDFNil) {
			return out, nil
		}
		key := cur.String()
		if _, dup := seen[key]; dup {
			return out, fmt.Errorf("rdf: cyclic list at %s", key)
		}
		seen[key] = struct{}{}
		first, ok := g.FirstObject(cur, RDFFirst)
		if !ok {
			return out, fmt.Errorf("rdf: list cell %s missing rdf:first", key)
		}
		out = append(out, first)
		rest, ok := g.FirstObject(cur, RDFRest)
		if !ok {
			return out, fmt.Errorf("rdf: list cell %s missing rdf:rest", key)
		}
		cur = rest
	}
}
