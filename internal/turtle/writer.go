package turtle

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Write serializes g as Turtle using the given prefixes (nil means the common
// GRDF prefix set). Triples are grouped by subject with predicate-object
// lists; blank nodes referenced exactly once are rendered inline as
// [ … ] property lists (the idiomatic Turtle shape for envelopes and
// geometry nodes); subjects, predicates and objects are emitted in sorted
// order so the output is deterministic.
func Write(w io.Writer, g *rdf.Graph, prefixes *rdf.Prefixes) error {
	return WriteTriples(w, g.Triples(), prefixes)
}

// WriteTriples serializes ts as Write serializes a graph holding them; ts
// must not hold a triple twice (a store's triples never do).
func WriteTriples(w io.Writer, ts []rdf.Triple, prefixes *rdf.Prefixes) error {
	_, err := w.Write(AppendTriples(nil, ts, prefixes))
	return err
}

// Format renders the graph as a Turtle string.
func Format(g *rdf.Graph, prefixes *rdf.Prefixes) string {
	return string(AppendTriples(nil, g.Triples(), prefixes))
}

// AppendTriples appends the document WriteTriples writes to dst. The triples
// are interned into an ID table of the call's own, grouped by subject, and
// written by the code that writes a store's view (AppendView).
func AppendTriples(dst []byte, ts []rdf.Triple, prefixes *rdf.Prefixes) []byte {
	ids := map[rdf.Term]store.ID{}
	var terms []rdf.Term
	intern := func(t rdf.Term) store.ID {
		id, ok := ids[t]
		if !ok {
			terms = append(terms, t)
			id = store.ID(len(terms))
			ids[t] = id
		}
		return id
	}
	enc := make([][3]store.ID, len(ts))
	for i, t := range ts {
		enc[i] = [3]store.ID{intern(t.Subject), intern(t.Predicate), intern(t.Object)}
	}
	// Group by subject: a counting sort on the subject's ID.
	start := make([]int32, len(terms)+2)
	for _, t := range enc {
		start[t[0]+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := make([]int32, len(enc))
	for i, t := range enc {
		order[start[t[0]]] = int32(i)
		start[t[0]]++
	}

	names := NewNames(prefixes)
	term := func(id store.ID) rdf.Term { return terms[id-1] }
	w := newWriter(dst, len(terms), term, names.upTo(len(terms), term), len(names.decls))
	w.pos = make([]po, 0, len(enc))
	for _, i := range order {
		w.add(enc[i][0], enc[i][1], enc[i][2])
	}
	return w.write(names.decls)
}

// AppendView appends v's triples to dst as Turtle: the document Write gives a
// graph of them, with the common GRDF prefixes. It walks v's SPO index, which
// hands over each subject's triples together, and writes in ID space: no
// triple is made of terms. names must be nil (names made for this call) or
// made for v's dictionary, whose other stores' documents it may serve too.
func AppendView(dst []byte, v store.StoreView, names *Names) []byte {
	if names == nil {
		names = NewNames(nil)
	}
	dv := v.DictView()
	w := newWriter(dst, dv.Len(), dv.Term, names.upTo(dv.Len(), dv.Term), len(names.decls))
	w.pos = make([]po, 0, v.Len())
	v.ForEachMatchIDs(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		w.add(s, p, o)
		return true
	})
	return w.write(names.decls)
}

// Names is the Turtle form of the IRIs and typed literals of one dictionary,
// by ID: an IRI's prefixed name (or <iri> where no prefix compacts it), and a
// typed literal's "lexical form"^^datatype. Each is made once, by the first
// document that needs it, and read by every later document over the
// dictionary — concurrent ones too. The prefixes must not change after
// NewNames.
type Names struct {
	*prefixTable
	mu    sync.Mutex
	table nameTable
}

// prefixTable is a prefix set as documents use it.
type prefixTable struct {
	prefixes *rdf.Prefixes
	// labels are the prefixes, in the order a document declares them, and
	// decls their declarations; a form's prefix is an index into both.
	labels, decls []string
}

func newPrefixTable(prefixes *rdf.Prefixes) *prefixTable {
	pt := &prefixTable{prefixes: prefixes}
	prefixes.Each(func(label, ns string) {
		pt.labels = append(pt.labels, label)
		pt.decls = append(pt.decls, "@prefix "+label+": <"+ns+"> .\n")
	})
	return pt
}

// commonPrefixes is the common GRDF prefix set's table, made once and never
// bound to again: the prefixes of every document written without any given.
var commonPrefixes = sync.OnceValue(func() *prefixTable { return newPrefixTable(rdf.CommonPrefixes()) })

// nameTable is the forms made so far. It only grows: a copy taken earlier
// reads what it read then, while a later upTo appends past its end.
type nameTable struct {
	arena []byte
	// ends[id] is where id's form ends in arena, ends[id-1] where it starts:
	// the form of a term of another kind is empty.
	ends []uint32
	// prefix[id] is 1 + the index of the declaration id's form needs, or 0.
	prefix []uint16
}

// NewNames returns an empty table of forms made with prefixes (nil means the
// common GRDF prefix set).
func NewNames(prefixes *rdf.Prefixes) *Names {
	pt := commonPrefixes()
	if prefixes != nil {
		pt = newPrefixTable(prefixes)
	}
	return &Names{prefixTable: pt, table: nameTable{ends: []uint32{0}, prefix: []uint16{0}}}
}

// upTo returns the table with the forms of the IDs up to last, making the
// ones it lacks from term.
func (n *Names) upTo(last int, term func(store.ID) rdf.Term) nameTable {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := &n.table
	var dt rdf.IRI // the last datatype named, and its name
	var dtName []byte
	var dtPrefix int
	for id := len(t.ends); id <= last; id++ {
		pfx := 0
		switch v := term(store.ID(id)).(type) {
		case rdf.IRI:
			t.arena, pfx = n.appendName(t.arena, v)
		case rdf.Literal:
			if v.Lang != "" || v.Datatype == "" || v.Datatype == rdf.XSDString {
				break
			}
			if v.Datatype != dt {
				dt = v.Datatype
				dtName, dtPrefix = n.appendName(dtName[:0], dt)
			}
			t.arena = append(t.arena, '"')
			t.arena = append(t.arena, rdf.EscapeLiteral(v.Value)...)
			t.arena = append(t.arena, `"^^`...)
			t.arena = append(t.arena, dtName...)
			pfx = dtPrefix
		}
		t.ends = append(t.ends, uint32(len(t.arena)))
		t.prefix = append(t.prefix, uint16(pfx))
	}
	return *t
}

// appendName appends iri's name to dst: what the prefixes compact it to. It
// returns 1 + the index of the declaration the name needs (0 for none).
func (pt *prefixTable) appendName(dst []byte, iri rdf.IRI) ([]byte, int) {
	c := pt.prefixes.Compact(iri)
	if strings.HasPrefix(c, "<") {
		return append(dst, c...), 0
	}
	return append(dst, c...), 1 + slices.Index(pt.labels, c[:strings.IndexByte(c, ':')])
}

func (t nameTable) form(id store.ID) []byte { return t.arena[t.ends[id-1]:t.ends[id]] }

// writer carries one document's rendering state, all of it by ID.
type writer struct {
	out   []byte
	term  func(store.ID) rdf.Term
	names nameTable
	// forms are the N-Triples forms the document sorts by.
	forms ntriples.Forms
	ids   []idState
	// groups are the document's subjects; pos holds their triples, a
	// group's together from its lo.
	groups []group
	pos    []po
	// used[i] notes that the document needs declaration i.
	used    []bool
	rdfType store.ID
	cmp     func(a, b po) int
}

// idState is what a document knows of one ID.
type idState struct {
	// group is 1 + the index of the ID's group as a subject; 0 when it is
	// not one.
	group int32
	// refs counts the triples a blank node is the object of.
	refs int32
	// mark is the last cycle search (computeInlineable) that visited it.
	mark                int32
	seen, blank, inline bool
}

type group struct {
	s  store.ID
	lo int32
}

type po struct{ p, o store.ID }

func newWriter(dst []byte, n int, term func(store.ID) rdf.Term, names nameTable, decls int) *writer {
	w := &writer{
		out: dst, term: term, names: names, forms: ntriples.NewForms(n, term),
		ids: make([]idState, n+1), used: make([]bool, decls),
	}
	w.cmp = w.comparePO
	return w
}

// add takes the next triple; a subject's triples come together.
func (w *writer) add(s, p, o store.ID) {
	if n := len(w.groups); n == 0 || w.groups[n-1].s != s {
		w.groups = append(w.groups, group{s: s, lo: int32(len(w.pos))})
		w.ids[s].group = int32(len(w.groups))
		w.see(s)
	}
	w.pos = append(w.pos, po{p, o})
	w.see(p)
	w.see(o)
	if st := &w.ids[o]; st.blank {
		st.refs++
	}
}

// see notes the first mention of id: the prefix its form needs, and its kind.
func (w *writer) see(id store.ID) {
	st := &w.ids[id]
	if st.seen {
		return
	}
	st.seen = true
	if pfx := w.names.prefix[id]; pfx > 0 {
		w.used[pfx-1] = true
	}
	switch t := w.term(id).(type) {
	case rdf.BlankNode:
		st.blank = true
	case rdf.IRI:
		if t == rdf.RDFType {
			w.rdfType = id
		}
	}
}

// triplesOf is the group's triples.
func (w *writer) triplesOf(g int32) []po {
	hi := len(w.pos)
	if int(g)+1 < len(w.groups) {
		hi = int(w.groups[g+1].lo)
	}
	return w.pos[w.groups[g].lo:hi]
}

// write appends the document: the declarations it needs, then every subject
// in the order of its N-Triples form, less the blank nodes written inline.
func (w *writer) write(decls []string) []byte {
	if slices.Contains(w.used, true) {
		for i, d := range decls {
			if w.used[i] {
				w.out = append(w.out, d...)
			}
		}
		w.out = append(w.out, '\n')
	}
	// Every subject is sorted, so its form is made: room for all of them, and
	// an eighth more for the predicates and objects sorted.
	size := 0
	order := make([]int32, len(w.groups))
	for i, g := range w.groups {
		order[i] = int32(i)
		switch t := w.term(g.s).(type) {
		case rdf.IRI:
			size += len(t) + 2
		case rdf.BlankNode:
			size += len(t) + 2
		}
	}
	w.forms.Reserve(size + size/8)
	w.computeInlineable()
	slices.SortFunc(order, func(a, b int32) int {
		return bytes.Compare(w.forms.Of(w.groups[a].s), w.forms.Of(w.groups[b].s))
	})
	for _, g := range order {
		s := w.groups[g].s
		if w.ids[s].inline {
			continue // rendered at its reference point
		}
		w.writeTerm(s)
		w.propertyList(g, 0)
		w.out = append(w.out, " .\n"...)
	}
	return w.out
}

// computeInlineable marks blank nodes that are referenced exactly once as an
// object, have at least one property, and do not participate in a blank-node
// reference cycle.
func (w *writer) computeInlineable() {
	var candidates []store.ID
	for _, g := range w.groups {
		if st := &w.ids[g.s]; st.blank && st.refs == 1 {
			st.inline = true
			candidates = append(candidates, g.s)
		}
	}
	// Break cycles: a blank node reachable from itself through inlineable
	// links cannot be inlined. Which node of a cycle that is depends on the
	// order they are asked in, so it is a fixed one: label order.
	slices.SortFunc(candidates, func(a, b store.ID) int { return bytes.Compare(w.forms.Of(a), w.forms.Of(b)) })
	for i, b := range candidates {
		if w.reachesSelf(b, b, int32(i+1)) {
			w.ids[b].inline = false
		}
	}
}

func (w *writer) reachesSelf(start, cur store.ID, mark int32) bool {
	st := &w.ids[cur]
	if st.mark == mark {
		return false
	}
	st.mark = mark
	for _, t := range w.triplesOf(st.group - 1) {
		if w.ids[t.o].inline && (t.o == start || w.reachesSelf(start, t.o, mark)) {
			return true
		}
	}
	return false
}

// propertyList writes " p1 o1, o2 ;\n    p2 o3" for the group's subject:
// rdf:type first, then the predicates in the order of their N-Triples form —
// conventional Turtle style — and each predicate's objects in the order of
// theirs.
func (w *writer) propertyList(g int32, depth int) {
	ts := w.triplesOf(g)
	if len(ts) > 1 {
		slices.SortFunc(ts, w.cmp)
	}
	for i, t := range ts {
		switch {
		case i == 0:
			w.out = append(w.out, ' ')
		case t.p == ts[i-1].p:
			w.out = append(w.out, ", "...)
			w.object(t.o, depth)
			continue
		default:
			w.out = append(w.out, " ;\n"...)
			for range depth + 1 {
				w.out = append(w.out, "    "...)
			}
		}
		if t.p == w.rdfType {
			w.out = append(w.out, "a "...)
		} else {
			w.writeTerm(t.p)
			w.out = append(w.out, ' ')
		}
		w.object(t.o, depth)
	}
}

// comparePO orders a subject's triples: rdf:type first, then by the
// predicate's N-Triples form, then by the object's. Only objects that share
// a predicate are ever compared, so only theirs are rendered.
func (w *writer) comparePO(a, b po) int {
	if a.p != b.p {
		switch w.rdfType {
		case a.p:
			return -1
		case b.p:
			return 1
		}
		return bytes.Compare(w.forms.Of(a.p), w.forms.Of(b.p))
	}
	return bytes.Compare(w.forms.Of(a.o), w.forms.Of(b.o))
}

// object writes an object term, inlining single-reference blank nodes.
func (w *writer) object(o store.ID, depth int) {
	if st := w.ids[o]; st.inline {
		w.out = append(w.out, '[')
		w.propertyList(st.group-1, depth+1)
		w.out = append(w.out, " ]"...)
		return
	}
	w.writeTerm(o)
}

// writeTerm writes an IRI or a typed literal as its name, and any other term
// as its N-Triples form: from the sort keys when it has been sorted, straight
// from the term when not.
func (w *writer) writeTerm(id store.ID) {
	if f := w.names.form(id); len(f) > 0 {
		w.out = append(w.out, f...)
	} else if f, ok := w.forms.Made(id); ok {
		w.out = append(w.out, f...)
	} else {
		w.out = rdf.AppendTerm(w.out, w.term(id))
	}
}
