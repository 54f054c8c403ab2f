package turtle

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// TestWriteTriplesIsTheTurtleItWas: WriteTriples over a store's triples, and
// Write over the graph of them, give the bytes the old writer gave — on the
// generated scenarios (inlined envelopes and geometry nodes, typed literals,
// several objects per predicate) and on a graph of hard cases.
func TestWriteTriplesIsTheTurtleItWas(t *testing.T) {
	graphs := map[string]*rdf.Graph{}
	for _, sites := range []int{3, 12, 40} {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: int64(sites), Sites: sites})
		graphs[fmt.Sprintf("scenario-%d", sites)] = sc.Merged.Graph()
		graphs[fmt.Sprintf("policies-%d", sites)] = sc.Policies.ToGraph()
	}
	e := func(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }
	self, shared, a, b := rdf.BlankNode("self"), rdf.BlankNode("shared"), rdf.BlankNode("a"), rdf.BlankNode("b")
	graphs["hard"] = rdf.GraphOf(
		rdf.T(e("s"), rdf.RDFType, e("C")), rdf.T(e("s"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Feature")),
		rdf.T(e("s"), e("p"), rdf.NewString("quo\"te\nline\ttab \xff")), rdf.T(e("s"), e("p"), rdf.NewLangString("chat", "fr")),
		rdf.T(e("s"), e("p"), rdf.NewInteger(7)), rdf.T(e("s"), e("p"), rdf.Literal{Value: "x", Datatype: e("dt")}),
		rdf.T(e("s"), e("p"), rdf.Literal{Value: "bare"}), rdf.T(e("s"), e("p/"), e("s/x")), rdf.T(e("s/x"), e("p"), e("s")),
		rdf.T(e("s"), e("a"), a), rdf.T(a, e("q"), b), rdf.T(a, rdf.RDFType, e("Inner")), rdf.T(b, e("q"), rdf.NewDouble(1.5)),
		rdf.T(e("s"), e("selfish"), self), rdf.T(self, e("member"), self),
		rdf.T(e("s"), e("r"), shared), rdf.T(e("t"), e("r"), shared), rdf.T(shared, e("q"), rdf.NewBoolean(true)),
		rdf.T(rdf.BlankNode("orphan"), e("q"), rdf.IRI("urn:no-prefix")), rdf.T(e("t"), e("empty"), rdf.BlankNode("leaf")),
	)
	for name, g := range graphs {
		var want, viaGraph, viaTriples bytes.Buffer
		if err := referenceWrite(&want, g, nil); err != nil {
			t.Fatal(err)
		}
		if err := Write(&viaGraph, g, nil); err != nil {
			t.Fatal(err)
		}
		// Any order of the same triples is the same document.
		ts := append([]rdf.Triple{}, g.Triples()...)
		sort.Slice(ts, func(i, j int) bool { return ts[i].Object.String() > ts[j].Object.String() })
		if err := WriteTriples(&viaTriples, ts, nil); err != nil {
			t.Fatal(err)
		}
		if viaGraph.String() != want.String() || viaTriples.String() != want.String() {
			t.Errorf("%s: the writer's %d bytes (%d from triples) are not the old writer's %d\n%s", name, viaGraph.Len(), viaTriples.Len(), want.Len(), firstDiff(viaTriples.String(), want.String()))
		}
		if back, err := ParseString(viaTriples.String()); err != nil || back.Len() != g.Len() {
			t.Errorf("%s: round trip: %v", name, err)
		}
	}
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

func BenchmarkWrite(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 1, Sites: 450})
	ts := sc.Merged.Triples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTriples(io.Discard, ts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ts))/1e3, "us/triple")
}

// referenceWrite is Write as it was before WriteTriples: the graph copied by
// subject into maps, every term rendered to a string of its own, String()
// called inside the sort comparators and Compact once per term occurrence. It
// is kept as the oracle the writer is compared against.
func referenceWrite(w io.Writer, g *rdf.Graph, prefixes *rdf.Prefixes) error {
	if prefixes == nil {
		prefixes = rdf.CommonPrefixes()
	}
	bw := bufio.NewWriter(w)

	// Only emit prefix declarations actually used by the graph.
	used := refUsedPrefixes(g, prefixes)
	prefixes.Each(func(prefix, ns string) {
		if used[prefix] {
			bw.WriteString("@prefix " + prefix + ": <" + ns + "> .\n")
		}
	})
	if len(used) > 0 {
		bw.WriteByte('\n')
	}

	wr := &refWriter{g: g, prefixes: prefixes, bySubject: map[rdf.Term][]rdf.Triple{}}
	var subjects []rdf.Term
	for _, t := range g.Triples() {
		if _, ok := wr.bySubject[t.Subject]; !ok {
			subjects = append(subjects, t.Subject)
		}
		wr.bySubject[t.Subject] = append(wr.bySubject[t.Subject], t)
	}
	wr.computeInlineable()

	sort.Slice(subjects, func(i, j int) bool {
		return subjects[i].String() < subjects[j].String()
	})
	for _, s := range subjects {
		if b, ok := s.(rdf.BlankNode); ok && wr.inlineable[b] {
			continue // rendered at its reference point
		}
		bw.WriteString(wr.renderSubjectBlock(s, ""))
		bw.WriteString(" .\n")
	}
	return bw.Flush()
}

type refWriter struct {
	g          *rdf.Graph
	prefixes   *rdf.Prefixes
	bySubject  map[rdf.Term][]rdf.Triple
	inlineable map[rdf.BlankNode]bool
}

// computeInlineable marks blank nodes that are referenced exactly once as an
// object, have at least one property, and do not participate in a blank-node
// reference cycle.
func (w *refWriter) computeInlineable() {
	objRefs := map[rdf.BlankNode]int{}
	for _, t := range w.g.Triples() {
		if b, ok := t.Object.(rdf.BlankNode); ok {
			objRefs[b]++
		}
	}
	w.inlineable = map[rdf.BlankNode]bool{}
	for b, n := range objRefs {
		if n == 1 && len(w.bySubject[b]) > 0 {
			w.inlineable[b] = true
		}
	}
	// Break cycles: a blank node reachable from itself through inlineable
	// links cannot be inlined.
	for b := range w.inlineable {
		if w.reachesSelf(b, b, map[rdf.BlankNode]bool{}) {
			w.inlineable[b] = false
		}
	}
}

func (w *refWriter) reachesSelf(start, cur rdf.BlankNode, visited map[rdf.BlankNode]bool) bool {
	if visited[cur] {
		return false
	}
	visited[cur] = true
	for _, t := range w.bySubject[cur] {
		if b, ok := t.Object.(rdf.BlankNode); ok && w.inlineable[b] {
			if b == start || w.reachesSelf(start, b, visited) {
				return true
			}
		}
	}
	return false
}

// renderSubjectBlock renders "subject pred obj ; …" (without the final dot)
// at the given indent.
func (w *refWriter) renderSubjectBlock(s rdf.Term, indent string) string {
	var sb strings.Builder
	sb.WriteString(w.renderTerm(s, indent))
	sb.WriteString(w.renderPropertyList(s, indent))
	return sb.String()
}

// renderPropertyList renders " p1 o1, o2 ;\n    p2 o3" for the subject.
func (w *refWriter) renderPropertyList(s rdf.Term, indent string) string {
	ts := w.bySubject[s]
	byPred := map[rdf.Term][]rdf.Term{}
	var preds []rdf.Term
	for _, t := range ts {
		if _, ok := byPred[t.Predicate]; !ok {
			preds = append(preds, t.Predicate)
		}
		byPred[t.Predicate] = append(byPred[t.Predicate], t.Object)
	}
	sort.Slice(preds, func(i, j int) bool {
		// rdf:type first, then alphabetical — conventional Turtle style.
		pi, pj := preds[i], preds[j]
		if pi.Equal(rdf.RDFType) != pj.Equal(rdf.RDFType) {
			return pi.Equal(rdf.RDFType)
		}
		return pi.String() < pj.String()
	})

	var sb strings.Builder
	for i, pred := range preds {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(" ;\n" + indent + "    ")
		}
		if pred.Equal(rdf.RDFType) {
			sb.WriteString("a")
		} else {
			sb.WriteString(w.renderTerm(pred, indent))
		}
		objs := byPred[pred]
		sort.Slice(objs, func(i, j int) bool { return objs[i].String() < objs[j].String() })
		for j, o := range objs {
			if j == 0 {
				sb.WriteByte(' ')
			} else {
				sb.WriteString(", ")
			}
			sb.WriteString(w.renderObject(o, indent))
		}
	}
	return sb.String()
}

// renderObject renders an object term, inlining single-reference blank nodes.
func (w *refWriter) renderObject(o rdf.Term, indent string) string {
	if b, ok := o.(rdf.BlankNode); ok && w.inlineable[b] {
		inner := indent + "    "
		return "[" + w.renderPropertyList(b, inner) + " ]"
	}
	return w.renderTerm(o, indent)
}

func (w *refWriter) renderTerm(t rdf.Term, _ string) string {
	switch v := t.(type) {
	case rdf.IRI:
		return w.prefixes.Compact(v)
	case rdf.BlankNode:
		return v.String()
	case rdf.Literal:
		if v.Lang != "" || v.Datatype == "" || v.Datatype == rdf.XSDString {
			return v.String()
		}
		return `"` + rdf.EscapeLiteral(v.Value) + `"^^` + w.prefixes.Compact(v.Datatype)
	default:
		return t.String()
	}
}

// usedPrefixes returns the set of prefix labels the serializer will actually
// rely on, so Write only declares those.
func refUsedPrefixes(g *rdf.Graph, prefixes *rdf.Prefixes) map[string]bool {
	used := map[string]bool{}
	note := func(iri rdf.IRI) {
		if c := prefixes.Compact(iri); !strings.HasPrefix(c, "<") {
			if idx := strings.IndexByte(c, ':'); idx >= 0 {
				used[c[:idx]] = true
			}
		}
	}
	for _, t := range g.Triples() {
		for _, term := range []rdf.Term{t.Subject, t.Predicate, t.Object} {
			switch v := term.(type) {
			case rdf.IRI:
				note(v)
			case rdf.Literal:
				if v.Datatype != "" && v.Datatype != rdf.XSDString && v.Lang == "" {
					note(v.Datatype)
				}
			}
		}
	}
	return used
}
