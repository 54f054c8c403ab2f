package ntriples

import (
	"slices"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Forms is the N-Triples form of the terms of one dictionary, by ID, each
// rendered the first time it is asked for into one arena: the sort keys of a
// document written in ID space, made once per document rather than once per
// comparison. A slice Of returns stays valid when the arena grows.
type Forms struct {
	term  func(store.ID) rdf.Term
	arena []byte
	// span[id] is where id's form sits in arena; its end is 0 until it is
	// rendered (no form is empty).
	span [][2]uint32
}

// NewForms returns the forms of the IDs 1..n that term resolves.
func NewForms(n int, term func(store.ID) rdf.Term) Forms {
	return Forms{term: term, span: make([][2]uint32, n+1)}
}

// Of returns id's N-Triples form: what rdf.AppendTerm writes of its term.
func (f *Forms) Of(id store.ID) []byte {
	sp := f.span[id]
	if sp[1] == 0 {
		start := len(f.arena)
		f.arena = rdf.AppendTerm(f.arena, f.term(id))
		sp = [2]uint32{uint32(start), uint32(len(f.arena))}
		f.span[id] = sp
	}
	return f.arena[sp[0]:sp[1]:sp[1]]
}

// Reserve makes room in the arena for n more bytes of forms.
func (f *Forms) Reserve(n int) { f.arena = slices.Grow(f.arena, n) }

// Made returns id's form if Of has rendered it.
func (f *Forms) Made(id store.ID) ([]byte, bool) {
	sp := f.span[id]
	return f.arena[sp[0]:sp[1]:sp[1]], sp[1] != 0
}

// AppendView appends the triples of v to dst as N-Triples, as Write writes
// a graph of them: one statement per line, the lines sorted. It walks v's
// index in ID space, and renders each term once.
func AppendView(dst []byte, v store.StoreView) []byte {
	dv := v.DictView()
	forms := NewForms(dv.Len(), dv.Term)
	var buf []byte
	ends := make([]int, 0, v.Len())
	v.ForEachMatchIDs(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		buf = append(buf, forms.Of(s)...)
		buf = append(buf, ' ')
		buf = append(buf, forms.Of(p)...)
		buf = append(buf, ' ')
		buf = append(buf, forms.Of(o)...)
		buf = append(buf, " .\n"...)
		ends = append(ends, len(buf))
		return true
	})
	for _, l := range sortedLines(buf, ends) {
		dst = append(dst, l...)
	}
	return dst
}
