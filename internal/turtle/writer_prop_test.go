package turtle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// randomTriples is a graph of up to 60 triples over a small vocabulary, so
// that the shapes the writer treats apart keep turning up: blank-node chains
// and cycles, a blank node referenced twice or by itself, several objects of
// one predicate, rdf:type, typed, language-tagged and escaped literals, and
// IRIs no prefix compacts (one the prefix of another's form).
func randomTriples(r *rand.Rand) []rdf.Triple {
	ex := func(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }
	nodes := []rdf.Term{
		ex("s"), ex("s/x"), ex("t"), rdf.IRI(rdf.AppNS + "site1"), rdf.IRI(rdf.GRDFNS + "Feature"),
		rdf.IRI("urn:no-prefix"), rdf.IRI("http://a"), rdf.IRI("http://a/b"), rdf.IRI(rdf.AppNS + "not a name"),
	}
	for i := range 8 {
		nodes = append(nodes, rdf.BlankNode(fmt.Sprint("b", i)))
	}
	nodes = append(nodes, rdf.BlankNode("b10"))
	preds := []rdf.IRI{rdf.RDFType, rdf.RDFType, ex("p"), ex("p/"), ex("q"), rdf.IRI(rdf.GRDFNS + "boundedBy"), rdf.IRI("urn:pred")}
	literals := []rdf.Term{
		rdf.NewString("plain"), rdf.NewString("quo\"te\nline\ttab \xff"), rdf.NewLangString("chat", "fr"),
		rdf.NewLangString("chat", "en"), rdf.NewInteger(7), rdf.NewInteger(-12), rdf.NewDouble(1.5),
		rdf.NewBoolean(true), rdf.Literal{Value: "x", Datatype: ex("dt")}, rdf.Literal{Value: "x\\y", Datatype: ex("dt")},
		rdf.Literal{Value: "bare"}, rdf.Literal{Value: "7", Datatype: "urn:type"},
	}
	g := rdf.NewGraph()
	for range 1 + r.Intn(60) {
		s := nodes[r.Intn(len(nodes))]
		p := preds[r.Intn(len(preds))]
		var o rdf.Term
		if r.Intn(2) == 0 {
			o = nodes[r.Intn(len(nodes))]
		} else {
			o = literals[r.Intn(len(literals))]
		}
		g.Add(rdf.T(s, p, o))
	}
	ts := append([]rdf.Triple(nil), g.Triples()...)
	r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// TestWriterEqualsReference: over random graphs, the document WriteTriples
// makes of the triples in any order, and the one AppendView makes of a store
// holding them, are the bytes of the term-level writer. (The original
// map-based writer is no oracle here: it broke blank-node cycles in map
// order.) One table of names serves two stores of one dictionary — a
// store and a changed snapshot of it — in either order.
func TestWriterEqualsReference(t *testing.T) {
	// Prefix sets besides the common one: nested namespaces, and two labels
	// bound to one namespace, before and after one of them is rebound.
	nested := rdf.NewPrefixes()
	nested.Bind("ex", "http://example.org/")
	nested.Bind("exs", "http://example.org/s/")
	nested.Bind("a", "http://a")
	shared := nested.Clone()
	shared.Bind("ex2", "http://example.org/")
	rebound := shared.Clone()
	rebound.Bind("ex2", "http://example.org/p")
	prefixSets := []*rdf.Prefixes{nil, nested, shared, rebound}

	r := rand.New(rand.NewSource(1))
	for i := range 500 {
		ts := randomTriples(r)
		if prefixes := prefixSets[i%len(prefixSets)]; prefixes != nil {
			var ref, got bytes.Buffer
			termWriteTriples(&ref, ts, prefixes)
			WriteTriples(&got, ts, prefixes)
			if got.String() != ref.String() {
				t.Fatalf("graph %d, prefix set %d: WriteTriples differs from the term-level writer\n%s", i, i%len(prefixSets), firstDiff(got.String(), ref.String()))
			}
		}
		var ref, viaTriples bytes.Buffer
		if err := termWriteTriples(&ref, ts, nil); err != nil {
			t.Fatal(err)
		}
		if err := WriteTriples(&viaTriples, ts, nil); err != nil {
			t.Fatal(err)
		}
		st := store.New()
		st.AddAll(ts)
		names := NewNames(nil)
		viaView := AppendView(nil, st.View(), names)
		for name, got := range map[string]string{"WriteTriples": viaTriples.String(), "AppendView": string(viaView)} {
			if got != ref.String() {
				t.Fatalf("graph %d: %s differs from the term-level writer\n%s\ntriples:\n%s", i, name, firstDiff(got, ref.String()), rdf.GraphOf(ts...))
			}
		}

		// A snapshot keeps the dictionary: change it, interning new terms, and
		// render both stores with the same names.
		next := st.Snapshot()
		more := randomTriples(r)
		next.ApplyBatch([]store.Op{{Kind: store.OpRemove, Triples: ts[:len(ts)/2]}, {Kind: store.OpAdd, Triples: more}})
		next.Add(rdf.T(rdf.IRI(fmt.Sprint("http://example.org/new", i)), rdf.RDFType, rdf.Literal{Value: fmt.Sprint(i), Datatype: rdf.IRI(rdf.AppNS + "Code")}))
		var nextRef bytes.Buffer
		if err := termWriteTriples(&nextRef, next.Triples(), nil); err != nil {
			t.Fatal(err)
		}
		if got := string(AppendView(nil, next.View(), names)); got != nextRef.String() {
			t.Fatalf("graph %d, changed: AppendView with the names of the store it came from differs\n%s", i, firstDiff(got, nextRef.String()))
		}
		if again := AppendView(nil, st.View(), names); !bytes.Equal(again, viaView) {
			t.Fatalf("graph %d: rendered again with names grown by a later version, the store's document changed\n%s", i, firstDiff(string(again), string(viaView)))
		}
	}
}
