package ntriples

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestAppendViewIsWriteTriples: the N-Triples document AppendView writes of
// a store is the one WriteTriples writes of its triples, over random graphs
// whose terms' forms run into each other — a form that is the prefix of
// another's, followed there by a byte below the space that ends it in a line.
func TestAppendViewIsWriteTriples(t *testing.T) {
	nodes := []rdf.Term{
		rdf.IRI("http://a"), rdf.IRI("http://a/b"), rdf.IRI("http://a>b"), rdf.IRI("http://a> \x01"),
		rdf.BlankNode("b"), rdf.BlankNode("b1"), rdf.BlankNode("b10"), rdf.BlankNode("b\x01"), rdf.BlankNode("b "),
	}
	preds := []rdf.IRI{"http://p", "http://p\x01", "http://p/q", rdf.RDFType}
	literals := []rdf.Term{
		rdf.NewString("a"), rdf.NewString("a\x01"), rdf.NewLangString("a", "en"), rdf.NewInteger(1),
		rdf.Literal{Value: "a", Datatype: "http://a"}, rdf.NewString("quo\"te\n\xff"),
	}
	r := rand.New(rand.NewSource(1))
	for i := range 300 {
		g := rdf.NewGraph()
		for range 1 + r.Intn(40) {
			var o rdf.Term = nodes[r.Intn(len(nodes))]
			if r.Intn(2) == 0 {
				o = literals[r.Intn(len(literals))]
			}
			g.Add(rdf.T(nodes[r.Intn(len(nodes))], preds[r.Intn(len(preds))], o))
		}
		var want bytes.Buffer
		if err := WriteTriples(&want, g.Triples()); err != nil {
			t.Fatal(err)
		}
		st := store.New()
		st.AddAll(g.Triples())
		if got := AppendView(nil, st.View()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("graph %d: AppendView wrote\n%s\nWriteTriples\n%s", i, got, want.Bytes())
		}
	}
	if got := fmt.Sprint(len(AppendView(nil, store.New().View()))); got != "0" {
		t.Errorf("an empty store's document has %s bytes", got)
	}
}
