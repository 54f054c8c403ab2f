package turtle

import (
	"bufio"
	"io"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// termWriteTriples is the writer as it was before it moved to ID space: it
// groups the triples by subject in term-keyed maps, makes a sort key per term
// sorted with String and a prefixed name once per distinct IRI. It is kept as
// the byte-for-byte oracle of the ID-space writer.
func termWriteTriples(w io.Writer, ts []rdf.Triple, prefixes *rdf.Prefixes) error {
	if prefixes == nil {
		prefixes = rdf.CommonPrefixes()
	}
	wr := &termWriter{
		bw: bufio.NewWriter(w), prefixes: prefixes,
		names: map[rdf.IRI]string{}, used: map[string]bool{},
		index: map[rdf.Term]int{}, indents: []string{""}, predKeys: map[rdf.Term]string{},
	}
	objRefs := map[rdf.BlankNode]int{}
	for _, t := range ts {
		wr.group(t)
		wr.name(t.Subject)
		wr.name(t.Predicate)
		wr.name(t.Object)
		if b, ok := t.Object.(rdf.BlankNode); ok {
			objRefs[b]++
		}
	}

	// Only the prefixes the document relies on are declared.
	prefixes.Each(func(prefix, ns string) {
		if wr.used[prefix] {
			wr.bw.WriteString("@prefix " + prefix + ": <" + ns + "> .\n")
		}
	})
	if len(wr.used) > 0 {
		wr.bw.WriteByte('\n')
	}

	wr.computeInlineable(objRefs)
	order := make([]int, len(wr.subjects))
	keys := make([]string, len(wr.subjects))
	for i, s := range wr.subjects {
		order[i], keys[i] = i, s.term.String()
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	for _, i := range order {
		s := wr.subjects[i].term
		if b, ok := s.(rdf.BlankNode); ok && wr.inlineable[b] {
			continue // rendered at its reference point
		}
		wr.term(s)
		wr.propertyList(s, 0)
		wr.bw.WriteString(" .\n")
	}
	return wr.bw.Flush()
}

// termWriter carries the per-document rendering state.
type termWriter struct {
	bw       *bufio.Writer
	prefixes *rdf.Prefixes
	// names holds the prefixed (or bracketed) form of every IRI the document
	// mentions, used the labels of the prefixes those forms rely on.
	names map[rdf.IRI]string
	used  map[string]bool
	// subjects groups the triples by subject, in order of first mention;
	// index finds a subject's group.
	subjects   []termSubjectGroup
	index      map[rdf.Term]int
	inlineable map[rdf.BlankNode]bool
	// indents[d] is the indent of nesting depth d.
	indents []string
	// predKeys holds the sort key of every predicate sorted so far; sorting
	// is the scratch propertyList orders one subject's triples in.
	predKeys map[rdf.Term]string
	sorting  []termKeyedTriple
}

// termKeyedTriple is a triple with the sort keys made for it: its predicate's
// N-Triples form (empty for rdf:type, which goes first) and, where the
// predicate has several objects, the object's.
type termKeyedTriple struct {
	pred, obj string
	t         rdf.Triple
}

type termSubjectGroup struct {
	term    rdf.Term
	triples []rdf.Triple
}

func (w *termWriter) group(t rdf.Triple) {
	i := len(w.subjects) - 1
	if i < 0 || w.subjects[i].term != t.Subject {
		var ok bool
		if i, ok = w.index[t.Subject]; !ok {
			i = len(w.subjects)
			w.index[t.Subject] = i
			w.subjects = append(w.subjects, termSubjectGroup{term: t.Subject})
		}
	}
	w.subjects[i].triples = append(w.subjects[i].triples, t)
}

// name notes the IRI a term is or is typed by, once per distinct IRI: how it
// is written, and the prefix that needs declaring for it.
func (w *termWriter) name(t rdf.Term) {
	var iri rdf.IRI
	switch v := t.(type) {
	case rdf.IRI:
		iri = v
	case rdf.Literal:
		if v.Datatype == "" || v.Datatype == rdf.XSDString || v.Lang != "" {
			return
		}
		iri = v.Datatype
	default:
		return
	}
	if _, seen := w.names[iri]; seen {
		return
	}
	c := w.prefixes.Compact(iri)
	w.names[iri] = c
	if !strings.HasPrefix(c, "<") {
		if idx := strings.IndexByte(c, ':'); idx >= 0 {
			w.used[c[:idx]] = true
		}
	}
}

func (w *termWriter) triplesOf(s rdf.Term) []rdf.Triple {
	if i, ok := w.index[s]; ok {
		return w.subjects[i].triples
	}
	return nil
}

// computeInlineable marks blank nodes that are referenced exactly once as an
// object, have at least one property, and do not participate in a blank-node
// reference cycle.
func (w *termWriter) computeInlineable(objRefs map[rdf.BlankNode]int) {
	w.inlineable = map[rdf.BlankNode]bool{}
	var candidates []rdf.BlankNode
	for b, n := range objRefs {
		if n == 1 && len(w.triplesOf(b)) > 0 {
			w.inlineable[b] = true
			candidates = append(candidates, b)
		}
	}
	// Break cycles: a blank node reachable from itself through inlineable
	// links cannot be inlined. Which node of a cycle that is depends on the
	// order they are asked in, so it is a fixed one.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, b := range candidates {
		if w.reachesSelf(b, b, map[rdf.BlankNode]bool{}) {
			w.inlineable[b] = false
		}
	}
}

func (w *termWriter) reachesSelf(start, cur rdf.BlankNode, visited map[rdf.BlankNode]bool) bool {
	if visited[cur] {
		return false
	}
	visited[cur] = true
	for _, t := range w.triplesOf(cur) {
		if b, ok := t.Object.(rdf.BlankNode); ok && w.inlineable[b] {
			if b == start || w.reachesSelf(start, b, visited) {
				return true
			}
		}
	}
	return false
}

func (w *termWriter) indent(depth int) string {
	for len(w.indents) <= depth {
		w.indents = append(w.indents, w.indents[len(w.indents)-1]+"    ")
	}
	return w.indents[depth]
}

// propertyList writes " p1 o1, o2 ;\n    p2 o3" for the subject: rdf:type
// first, then the predicates in the order of their N-Triples form —
// conventional Turtle style — and each predicate's objects in the order of
// theirs.
func (w *termWriter) propertyList(s rdf.Term, depth int) {
	ts := w.triplesOf(s)
	if len(ts) > 1 {
		ks := w.sorting[:0]
		for _, t := range ts {
			ks = append(ks, termKeyedTriple{pred: w.predKey(t.Predicate), t: t})
		}
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].pred < ks[j].pred })
		for lo := 0; lo < len(ks); {
			hi := lo + 1
			for hi < len(ks) && ks[hi].t.Predicate == ks[lo].t.Predicate {
				hi++
			}
			if run := ks[lo:hi]; len(run) > 1 {
				for i := range run {
					run[i].obj = run[i].t.Object.String()
				}
				sort.Slice(run, func(i, j int) bool { return run[i].obj < run[j].obj })
			}
			lo = hi
		}
		for i, k := range ks {
			ts[i] = k.t
		}
		w.sorting = ks
	}
	for i, t := range ts {
		switch {
		case i == 0:
			w.bw.WriteByte(' ')
		case t.Predicate == ts[i-1].Predicate:
			w.bw.WriteString(", ")
			w.object(t.Object, depth)
			continue
		default:
			w.bw.WriteString(" ;\n")
			w.bw.WriteString(w.indent(depth + 1))
		}
		if t.Predicate.Equal(rdf.RDFType) {
			w.bw.WriteString("a ")
		} else {
			w.term(t.Predicate)
			w.bw.WriteByte(' ')
		}
		w.object(t.Object, depth)
	}
}

func (w *termWriter) predKey(p rdf.Term) string {
	if p.Equal(rdf.RDFType) {
		return ""
	}
	k, ok := w.predKeys[p]
	if !ok {
		k = p.String()
		w.predKeys[p] = k
	}
	return k
}

// object writes an object term, inlining single-reference blank nodes.
func (w *termWriter) object(o rdf.Term, depth int) {
	if b, ok := o.(rdf.BlankNode); ok && w.inlineable[b] {
		w.bw.WriteByte('[')
		w.propertyList(b, depth+1)
		w.bw.WriteString(" ]")
		return
	}
	w.term(o)
}

func (w *termWriter) term(t rdf.Term) {
	switch v := t.(type) {
	case rdf.IRI:
		w.bw.WriteString(w.names[v])
	case rdf.Literal:
		if v.Lang != "" || v.Datatype == "" || v.Datatype == rdf.XSDString {
			w.bw.Write(rdf.AppendTerm(w.bw.AvailableBuffer(), v))
			return
		}
		w.bw.WriteByte('"')
		w.bw.WriteString(rdf.EscapeLiteral(v.Value))
		w.bw.WriteString(`"^^`)
		w.bw.WriteString(w.names[v.Datatype])
	default:
		w.bw.Write(rdf.AppendTerm(w.bw.AvailableBuffer(), t))
	}
}
