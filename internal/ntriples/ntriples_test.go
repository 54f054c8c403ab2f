package ntriples

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rdf"
)

func TestParseBasic(t *testing.T) {
	doc := `
# a comment
<http://e/s> <http://e/p> <http://e/o> .
<http://e/s> <http://e/p> "plain" .
<http://e/s> <http://e/p> "tagged"@en .
<http://e/s> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://e/p> _:b2 .
`
	g, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if !g.Has(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewLangString("tagged", "en"))) {
		t.Error("lang literal missing")
	}
	if !g.Has(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewInteger(42))) {
		t.Error("typed literal missing")
	}
	if !g.Has(rdf.T(rdf.BlankNode("b1"), rdf.IRI("http://e/p"), rdf.BlankNode("b2"))) {
		t.Error("blank node triple missing")
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "line1\nline2\t\"quoted\" back\\slash" .` + "\n" +
		`<http://e/s> <http://e/p> "étude \U0001F600" .` + "\n"
	g, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	want1 := "line1\nline2\t\"quoted\" back\\slash"
	if !g.Has(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString(want1))) {
		t.Errorf("escape handling wrong:\n%s", g)
	}
	want2 := "étude 😀"
	if !g.Has(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString(want2))) {
		t.Errorf("unicode escape handling wrong:\n%s", g)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> <http://e/o>`,        // missing dot
		`<http://e/s> <http://e/p> .`,                   // missing object
		`<http://e/s <http://e/p> <http://e/o> .`,       // unterminated IRI
		`"lit" <http://e/p> <http://e/o> .`,             // literal subject
		`<http://e/s> _:b <http://e/o> .`,               // blank predicate
		`<http://e/s> <http://e/p> "unterminated .`,     // unterminated literal
		`<http://e/s> <http://e/p> "x"^^bad .`,          // bad datatype
		`<http://e/s> <http://e/p> <http://e/o> . junk`, // trailing junk
		`<http://e/s> <http://e/p> "\q" .`,              // unknown escape
		`? <http://e/p> <http://e/o> .`,                 // bad start char
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
}

func TestParseErrorLineNumber(t *testing.T) {
	doc := "<http://e/s> <http://e/p> <http://e/o> .\nbad line\n"
	_, err := ParseString(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestCommentsOnlyDocumentIsEmpty(t *testing.T) {
	ts, err := ParseTriples("# only comments\n\n  \r\n")
	if err != nil || len(ts) != 0 {
		t.Errorf("ParseTriples = %v, %v; want no statements", ts, err)
	}
}

// TestStrictEscapes: a \u or \U escape is exactly 4 or 8 hex digits naming
// a Unicode scalar value, and an IRI may not decode to what its written form
// cannot hold.
func TestStrictEscapes(t *testing.T) {
	for _, stmt := range []string{
		`<http://e/s> <http://e/p> "a~u12G4b" .`,
		`<http://e/s> <http://e/p> "a~U0011FFFF" .`,
		`<http://e/s> <http://e/p> "a~uD800" .`,
		`<http://e/s> <http://e/p> <http://e/a~u003Eb> .`,
		`<http://e/s> <http://e/p> <http://e/a~u000Ab> .`,
		`<http://e/s> <http://e/p> <http://e/a~u005Cu0041> .`,
		`<http://e/s~u12> <http://e/p> "x" .`,
		`<http://e/s> <http://e/p> "x"^^<> .`,
	} {
		if _, err := ParseString(bs(stmt)); err == nil {
			t.Errorf("ParseString accepted %s", bs(stmt))
		}
	}
	g, err := ParseString(bs(`<http://e/~u0073> <http://e/p> "~u00E9~U0001F600" .`))
	if err != nil {
		t.Fatal(err)
	}
	if want := rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString("é😀")); !g.Has(want) {
		t.Errorf("escapes decoded to %s, want %s", g, want)
	}
}

// TestParseTripleIsOneLine: a record item is one statement, whatever
// follows a comment.
func TestParseTripleIsOneLine(t *testing.T) {
	if _, err := ParseTriple("<http://e/s> <http://e/p> <http://e/o> . # note"); err != nil {
		t.Errorf("comment after the dot: %v", err)
	}
	if _, err := ParseTriple("<http://e/s> <http://e/p> <http://e/o> . # note\n<http://e/s> <http://e/p> <http://e/o2> ."); err == nil {
		t.Error("a second statement after a comment was accepted")
	}
}

// TestWriteQuadsBytes pins the N-Quads writer's output.
func TestWriteQuadsBytes(t *testing.T) {
	ds, err := ParseQuadsString(`<http://e/b> <http://e/p> "2" .
<http://e/a> <http://e/p> "1"@en .
<http://e/s> <http://e/p> _:x <http://g/z> .
<http://e/s> <http://e/p> "t\tab" <http://g/a> .
<http://e/r> <http://e/p> <http://e/o> <http://g/a> .
`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<http://e/a> <http://e/p> "1"@en .
<http://e/b> <http://e/p> "2" .
<http://e/r> <http://e/p> <http://e/o> <http://g/a> .
<http://e/s> <http://e/p> "t\tab" <http://g/a> .
<http://e/s> <http://e/p> _:x <http://g/z> .
`
	if got := FormatQuads(ds); got != want {
		t.Errorf("FormatQuads =\n%s\nwant\n%s", got, want)
	}
}

func TestWriteDeterministic(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/b"), rdf.IRI("http://e/p"), rdf.NewString("2")),
		rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/p"), rdf.NewString("1")),
	)
	out := Format(g)
	if !strings.HasPrefix(out, `<http://e/a>`) {
		t.Errorf("output not sorted:\n%s", out)
	}
	g2 := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/p"), rdf.NewString("1")),
		rdf.T(rdf.IRI("http://e/b"), rdf.IRI("http://e/p"), rdf.NewString("2")),
	)
	if Format(g2) != out {
		t.Error("output order depends on insertion order")
	}
}

func TestRoundTrip(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/s"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Feature")),
		rdf.T(rdf.IRI("http://e/s"), rdf.IRI(rdf.GRDFNS+"coordinates"), rdf.NewString("2533822.17,7108248.82")),
		rdf.T(rdf.IRI("http://e/s"), rdf.IRI(rdf.AppNS+"hasObjectID"), rdf.NewInteger(11070)),
		rdf.T(rdf.BlankNode("x"), rdf.RDFSLabel, rdf.NewLangString("flux", "fr")),
		rdf.T(rdf.IRI("http://e/s"), rdf.RDFSComment, rdf.NewString("tabs\tand\nnewlines")),
	)
	back, err := ParseString(Format(g))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !back.Equal(g) {
		t.Errorf("round trip mismatch:\nhave:\n%s\nwant:\n%s", back, g)
	}
}

// Property: any graph of simple string literals survives a round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		g := rdf.NewGraph()
		for i, v := range vals {
			if i > 20 {
				break
			}
			g.Add(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString(v)))
		}
		back, err := ParseString(Format(g))
		return err == nil && back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuadsRoundTrip(t *testing.T) {
	doc := `
<http://e/s> <http://e/p> "default graph" .
<http://e/s> <http://e/p> "in hydro" <http://g/hydro> .
<http://e/s2> <http://e/p> <http://e/o> <http://g/chem> .
# comment
`
	ds, err := ParseQuadsString(doc)
	if err != nil {
		t.Fatalf("ParseQuads: %v", err)
	}
	if ds.Default().Len() != 1 {
		t.Errorf("default graph = %d", ds.Default().Len())
	}
	names := ds.GraphNames()
	if len(names) != 2 {
		t.Fatalf("graphs = %v", names)
	}
	hydro, _ := ds.Graph(rdf.IRI("http://g/hydro"), false)
	if hydro.Len() != 1 || !hydro.Has(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString("in hydro"))) {
		t.Errorf("hydro graph wrong: %s", hydro)
	}
	out := FormatQuads(ds)
	back, err := ParseQuadsString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if back.Len() != ds.Len() {
		t.Errorf("round trip %d -> %d\n%s", ds.Len(), back.Len(), out)
	}
	if FormatQuads(back) != out {
		t.Error("serialization not canonical")
	}
}

func TestQuadsErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> "x" "graph-literal" .`, // literal graph label
		`<http://e/s> <http://e/p> "x" <http://g> extra .`,
		`<http://e/s> <http://e/p> .`,
		`<http://e/s> <http://e/p> "x" <http://g>`,
	}
	for _, doc := range bad {
		if _, err := ParseQuadsString(doc); err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
	// blank node graph labels are rejected (we keep labels as IRIs)
	if _, err := ParseQuadsString(`<http://e/s> <http://e/p> "x" _:g .`); err == nil {
		t.Error("blank graph label accepted")
	}
}

// TestParsedTermsOwnTheirBytes: no string of a term parsed from a document
// lies inside the document, for every kind of term — a term the store's
// dictionary keeps must not keep the whole document (a /v1/mutate body, a
// file) alive. (ParseTriple reads one statement that its caller owns, and
// leaves its IRIs and labels as windows on it.)
func TestParsedTermsOwnTheirBytes(t *testing.T) {
	doc := strings.Clone(`<http://e/s> <http://e/p> <http://e/o> .
_:b1 <http://e/p> _:b2 .
<http://e/s> <http://e/p> "plain" .
<http://e/s> <http://e/p> "tagged"@en .
<http://e/s> <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
`)
	ts, err := ParseTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	from := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	kinds := map[string]bool{}
	for _, tr := range ts {
		for _, term := range []rdf.Term{tr.Subject, tr.Predicate, tr.Object} {
			var parts []string
			switch v := term.(type) {
			case rdf.IRI:
				parts = []string{string(v)}
			case rdf.BlankNode:
				parts = []string{string(v)}
			case rdf.Literal:
				parts = []string{v.Value, string(v.Datatype), v.Lang}
			}
			kinds[fmt.Sprintf("%T", term)] = true
			for _, s := range parts {
				if s == "" {
					continue
				}
				if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); at >= from && at < from+uintptr(len(doc)) {
					t.Errorf("%q of %v lies inside the document", s, term)
				}
			}
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("the document parsed to term kinds %v, want IRIs, blank nodes and literals", kinds)
	}
}
