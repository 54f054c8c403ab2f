package turtle

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func mustParse(t *testing.T, doc string) *rdf.Graph {
	t.Helper()
	g, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", doc, err)
	}
	return g
}

func TestParseSimpleTriple(t *testing.T) {
	g := mustParse(t, `<http://e/s> <http://e/p> <http://e/o> .`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestParsePrefixesAndA(t *testing.T) {
	doc := `
@prefix ex: <http://example.org/> .
PREFIX ex2: <http://example2.org/>
ex:stream a grdf:Feature ;
    ex2:name "Trinity River" .
`
	g := mustParse(t, doc)
	if !g.Has(rdf.T(rdf.IRI("http://example.org/stream"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Feature"))) {
		t.Errorf("rdf:type triple missing:\n%s", g)
	}
	if !g.Has(rdf.T(rdf.IRI("http://example.org/stream"), rdf.IRI("http://example2.org/name"), rdf.NewString("Trinity River"))) {
		t.Errorf("name triple missing:\n%s", g)
	}
}

func TestParseObjectAndPredicateLists(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:s ex:p ex:o1 , ex:o2 ;
     ex:q ex:o3 .
`
	g := mustParse(t, doc)
	if g.Len() != 3 {
		t.Fatalf("Len = %d:\n%s", g.Len(), g)
	}
}

func TestParseLiteralForms(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:s ex:str "short" ;
    ex:long """multi
line""" ;
    ex:single 'single' ;
    ex:lang "bonjour"@fr ;
    ex:typed "2008-04-07"^^xsd:date ;
    ex:int 42 ;
    ex:neg -3 ;
    ex:dec 3.14 ;
    ex:dbl 6.02e23 ;
    ex:bool true .
`
	g := mustParse(t, doc)
	s := rdf.IRI("http://e/s")
	cases := []struct {
		p string
		o rdf.Term
	}{
		{"str", rdf.NewString("short")},
		{"long", rdf.NewString("multi\nline")},
		{"single", rdf.NewString("single")},
		{"lang", rdf.NewLangString("bonjour", "fr")},
		{"typed", rdf.Literal{Value: "2008-04-07", Datatype: rdf.XSDDate}},
		{"int", rdf.Literal{Value: "42", Datatype: rdf.XSDInteger}},
		{"neg", rdf.Literal{Value: "-3", Datatype: rdf.XSDInteger}},
		{"dec", rdf.Literal{Value: "3.14", Datatype: rdf.XSDDecimal}},
		{"dbl", rdf.Literal{Value: "6.02e23", Datatype: rdf.XSDDouble}},
		{"bool", rdf.NewBoolean(true)},
	}
	for _, c := range cases {
		if !g.Has(rdf.T(s, rdf.IRI("http://e/"+c.p), c.o)) {
			t.Errorf("missing %s -> %s:\n%s", c.p, c.o, g)
		}
	}
}

func TestParseBlankNodePropertyList(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:site ex:bounds [ ex:min "0,0" ; ex:max "10,10" ] .
[] ex:standalone "yes" .
`
	g := mustParse(t, doc)
	bounds := g.Objects(rdf.IRI("http://e/site"), rdf.IRI("http://e/bounds"))
	if len(bounds) != 1 || bounds[0].Kind() != rdf.KindBlank {
		t.Fatalf("bounds = %v", bounds)
	}
	if v, ok := g.FirstObject(bounds[0], rdf.IRI("http://e/min")); !ok || !v.Equal(rdf.NewString("0,0")) {
		t.Errorf("nested property missing: %v", v)
	}
	if len(g.Match(nil, rdf.IRI("http://e/standalone"), nil)) != 1 {
		t.Error("standalone anonymous subject missing")
	}
}

func TestParseCollection(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:s ex:items ( ex:a "b" 3 ) .
ex:s ex:empty () .
`
	g := mustParse(t, doc)
	head, ok := g.FirstObject(rdf.IRI("http://e/s"), rdf.IRI("http://e/items"))
	if !ok {
		t.Fatal("items missing")
	}
	items, err := g.ReadList(head)
	if err != nil || len(items) != 3 {
		t.Fatalf("ReadList = %v, %v", items, err)
	}
	if !items[0].Equal(rdf.IRI("http://e/a")) || !items[1].Equal(rdf.NewString("b")) {
		t.Errorf("items = %v", items)
	}
	if empty, ok := g.FirstObject(rdf.IRI("http://e/s"), rdf.IRI("http://e/empty")); !ok || !empty.Equal(rdf.RDFNil) {
		t.Errorf("empty list = %v", empty)
	}
}

func TestParseBase(t *testing.T) {
	doc := `
@base <http://base.org/data/> .
<item1> <p> <#frag> .
`
	g := mustParse(t, doc)
	if !g.Has(rdf.T(rdf.IRI("http://base.org/data/item1"), rdf.IRI("http://base.org/data/p"), rdf.IRI("http://base.org/data/#frag"))) {
		t.Errorf("base resolution wrong:\n%s", g)
	}
}

func TestParseComments(t *testing.T) {
	doc := `
# leading comment
@prefix ex: <http://e/> . # trailing
ex:s ex:p ex:o . # done
`
	g := mustParse(t, doc)
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> .`,             // missing object
		`<http://e/s> <http://e/p> <http://e/o>`,  // missing dot
		`ex:s ex:p ex:o .`,                        // unknown prefix (no defaults passed)
		`@prefix ex <http://e/> .`,                // missing colon
		`<http://e/s> <http://e/p> "unterminated`, // unterminated literal
		`<http://e/s> <http://e/p> "x"^^ .`,       // missing datatype
		`<http://e/s> <http://e/p> [ ex:p "v" .`,  // unterminated bnode list
		`"lit" <http://e/p> <http://e/o> .`,       // literal subject
	}
	for _, doc := range bad {
		if _, _, err := Parse(doc, nil); err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, _, err := Parse("\n\n  <http://e/s> <http://e/p> @@ .", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	te, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T: %v", err, err)
	}
	if te.Line != 3 {
		t.Errorf("Line = %d, want 3", te.Line)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.RDFType, rdf.IRI(rdf.AppNS+"ChemSite")),
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.IRI(rdf.AppNS+"hasSiteName"), rdf.NewString("North Texas Energy")),
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.IRI(rdf.AppNS+"hasSiteId"), rdf.NewString("004221")),
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.IRI(rdf.GRDFNS+"boundedBy"), rdf.BlankNode("env")),
		rdf.T(rdf.BlankNode("env"), rdf.IRI(rdf.GRDFNS+"coordinates"), rdf.NewString("1,2 3,4")),
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.IRI(rdf.AppNS+"count"), rdf.NewInteger(7)),
		rdf.T(rdf.IRI(rdf.AppNS+"NTEnergy"), rdf.RDFSLabel, rdf.NewLangString("site", "en")),
	)
	out := Format(g, nil)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, out)
	}
	// Blank node labels may be renamed on reparse; compare sizes and the
	// ground (non-blank) triples.
	if back.Len() != g.Len() {
		t.Fatalf("round trip %d -> %d triples\n%s", g.Len(), back.Len(), out)
	}
	for _, tr := range g.Triples() {
		if tr.Subject.Kind() == rdf.KindBlank || tr.Object.Kind() == rdf.KindBlank {
			continue
		}
		if !back.Has(tr) {
			t.Errorf("lost triple %s\noutput:\n%s", tr, out)
		}
	}
}

func TestWriteUsesPrefixesAndA(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.IRI(rdf.GRDFNS+"x"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Feature")),
	)
	out := Format(g, nil)
	if !strings.Contains(out, "@prefix grdf:") {
		t.Errorf("missing grdf prefix decl:\n%s", out)
	}
	if strings.Contains(out, "@prefix seconto:") {
		t.Errorf("unused prefix declared:\n%s", out)
	}
	if !strings.Contains(out, "grdf:x a grdf:Feature .") {
		t.Errorf("expected 'a' shorthand:\n%s", out)
	}
}

func TestWriteDeterministic(t *testing.T) {
	mk := func(order []int) string {
		g := rdf.NewGraph()
		trs := []rdf.Triple{
			rdf.T(rdf.IRI("http://e/b"), rdf.IRI("http://e/p"), rdf.NewString("1")),
			rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/q"), rdf.NewString("2")),
			rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/p"), rdf.NewString("3")),
		}
		for _, i := range order {
			g.Add(trs[i])
		}
		return Format(g, nil)
	}
	if mk([]int{0, 1, 2}) != mk([]int{2, 0, 1}) {
		t.Error("serializer output depends on insertion order")
	}
}

// Property: round-trip preserves ground triples for arbitrary string values.
func TestQuickRoundTripStrings(t *testing.T) {
	f := func(vals []string) bool {
		g := rdf.NewGraph()
		for i, v := range vals {
			if i >= 10 {
				break
			}
			g.Add(rdf.T(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.NewString(v)))
		}
		back, err := ParseString(Format(g, nil))
		return err == nil && back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsePaperStylePolicy(t *testing.T) {
	// The List 8 policy expressed in Turtle.
	doc := `
seconto:MainRep seconto:hasPolicy seconto:MainRepPolicy1 .
seconto:MainRepPolicy1 a seconto:Policy ;
    seconto:hasAction seconto:View ;
    seconto:hasCondition seconto:CondSites ;
    seconto:hasPolicyDecision seconto:Permit ;
    seconto:hasResource app:ChemSite .
seconto:CondSites seconto:hasPropertyAccess grdf:boundedBy .
`
	g := mustParse(t, doc)
	if g.Len() != 7 {
		t.Fatalf("Len = %d:\n%s", g.Len(), g)
	}
	pol := rdf.IRI(rdf.SecOntoNS + "MainRepPolicy1")
	if v, ok := g.FirstObject(pol, rdf.IRI(rdf.SecOntoNS+"hasPolicyDecision")); !ok || !v.Equal(rdf.IRI(rdf.SecOntoNS+"Permit")) {
		t.Errorf("decision = %v", v)
	}
}

func TestStringEscapesAndUnicode(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:s ex:esc "tab\tnl\ncr\rquote\"bs\\bell\b ff\f sq\'" ;
    ex:uni "café \U0001F30A" ;
    ex:long '''triple ' quote''' ;
    ex:iriesc <http://e/café> .
`
	g := mustParse(t, doc)
	s := rdf.IRI("http://e/s")
	if v, _ := g.FirstObject(s, rdf.IRI("http://e/esc")); !v.Equal(rdf.NewString("tab\tnl\ncr\rquote\"bs\\bell\b ff\f sq'")) {
		t.Errorf("esc = %v", v)
	}
	if v, _ := g.FirstObject(s, rdf.IRI("http://e/uni")); !v.Equal(rdf.NewString("café 🌊")) {
		t.Errorf("uni = %v", v)
	}
	if v, _ := g.FirstObject(s, rdf.IRI("http://e/long")); !v.Equal(rdf.NewString("triple ' quote")) {
		t.Errorf("long = %v", v)
	}
	if v, _ := g.FirstObject(s, rdf.IRI("http://e/iriesc")); !v.Equal(rdf.IRI("http://e/café")) {
		t.Errorf("iriesc = %v", v)
	}
}

func TestLexErrorCases(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> "\q" .`,                    // unknown escape
		`<http://e/s> <http://e/p> "\u12" .`,                  // truncated unicode
		`<http://e/s> <http://e/p> "no` + "\n" + `newline" .`, // raw newline in short string
		`<http://e/s> <http://e/p> @ .`,                       // empty lang tag
		`<http://e/s> ^ <http://e/o> .`,                       // stray caret
		`<http://e/s> <http://e/p> _:" .`,                     // bad blank
	}
	for _, doc := range bad {
		if _, _, err := Parse(doc, nil); err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
}

// TestStrictEscapes: Turtle decodes \u and \U with the N-Triples decoder —
// exactly 4 or 8 hex digits naming a Unicode scalar value — and refuses an
// IRI that decodes to '>'.
func TestStrictEscapes(t *testing.T) {
	for _, doc := range []string{
		`<http://e/s> <http://e/p> "a~u12G4b" .`,
		`<http://e/s> <http://e/p> "a~U0011FFFF" .`,
		`<http://e/s> <http://e/p> "a~uD800" .`,
		`<http://e/s> <http://e/p> <http://e/a~u003Eb> .`,
	} {
		doc = strings.ReplaceAll(doc, "~", `\`)
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString accepted %s", doc)
		}
	}
}

func TestWriteInlineBlankNodes(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/site"), rdf.IRI(rdf.GRDFNS+"boundedBy"), rdf.BlankNode("env")),
		rdf.T(rdf.BlankNode("env"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Envelope")),
		rdf.T(rdf.BlankNode("env"), rdf.IRI(rdf.GRDFNS+"lowerCorner"), rdf.NewString("0,0")),
	)
	out := Format(g, nil)
	if !strings.Contains(out, "[") || strings.Contains(out, "_:env") {
		t.Errorf("blank node not inlined:\n%s", out)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if back.Len() != g.Len() {
		t.Errorf("round trip %d -> %d:\n%s", g.Len(), back.Len(), out)
	}
}

func TestWriteSharedBlankNodeNotInlined(t *testing.T) {
	// A blank node referenced twice must keep its label.
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/a"), rdf.IRI("http://e/p"), rdf.BlankNode("shared")),
		rdf.T(rdf.IRI("http://e/b"), rdf.IRI("http://e/p"), rdf.BlankNode("shared")),
		rdf.T(rdf.BlankNode("shared"), rdf.IRI("http://e/v"), rdf.NewString("x")),
	)
	out := Format(g, nil)
	if strings.Contains(out, "[") {
		t.Errorf("shared blank node inlined:\n%s", out)
	}
	back, err := ParseString(out)
	if err != nil || back.Len() != g.Len() {
		t.Errorf("round trip: %v, %d triples\n%s", err, back.Len(), out)
	}
}

func TestWriteCyclicBlankNodesNotInlined(t *testing.T) {
	g := rdf.GraphOf(
		rdf.T(rdf.BlankNode("x"), rdf.IRI("http://e/p"), rdf.BlankNode("y")),
		rdf.T(rdf.BlankNode("y"), rdf.IRI("http://e/p"), rdf.BlankNode("x")),
	)
	out := Format(g, nil)
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("cyclic output unparseable: %v\n%s", err, out)
	}
	if back.Len() != 2 {
		t.Errorf("cycle lost: %d triples\n%s", back.Len(), out)
	}
}

func TestWriteNestedInline(t *testing.T) {
	// site -> [ geometry -> [ ring ] ] nests two levels.
	g := rdf.GraphOf(
		rdf.T(rdf.IRI("http://e/s"), rdf.IRI(rdf.GRDFNS+"hasGeometry"), rdf.BlankNode("g1")),
		rdf.T(rdf.BlankNode("g1"), rdf.RDFType, rdf.IRI(rdf.GRDFNS+"Polygon")),
		rdf.T(rdf.BlankNode("g1"), rdf.IRI(rdf.GRDFNS+"exterior"), rdf.BlankNode("r1")),
		rdf.T(rdf.BlankNode("r1"), rdf.IRI(rdf.GRDFNS+"coordinates"), rdf.NewString("0,0 1,0 1,1 0,0")),
	)
	out := Format(g, nil)
	if strings.Count(out, "[") != 2 {
		t.Errorf("nesting depth wrong:\n%s", out)
	}
	back, err := ParseString(out)
	if err != nil || back.Len() != g.Len() {
		t.Errorf("round trip: %v, %d\n%s", err, back.Len(), out)
	}
}

// TestParseTriplesKeepsDocumentOrder: ParseTriples hands back every triple in
// the order the document states it — a repeated statement twice, collection
// cells and a property list's triples ahead of the statement that names them
// — and the graph ParseString builds is the same triples, duplicates
// collapsed.
func TestParseTriplesKeepsDocumentOrder(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:s ex:p ex:o .
ex:s ex:p ex:o .
ex:s ex:items ( ex:a ) .
ex:t ex:q [ ex:r ex:u ] .
`
	ts, err := ParseTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	e := func(n string) rdf.IRI { return rdf.IRI("http://e/" + n) }
	if len(ts) != 7 || ts[0] != ts[1] || ts[0] != rdf.T(e("s"), e("p"), e("o")) {
		t.Fatalf("triples = %v", ts)
	}
	cell := ts[2].Subject
	if ts[2] != rdf.T(cell, rdf.RDFFirst, e("a")) || ts[3] != rdf.T(cell, rdf.RDFRest, rdf.RDFNil) ||
		ts[4] != rdf.T(e("s"), e("items"), cell) {
		t.Fatalf("collection triples = %v", ts[2:5])
	}
	node := ts[5].Subject
	if ts[5] != rdf.T(node, e("r"), e("u")) || ts[6] != rdf.T(e("t"), e("q"), node) {
		t.Fatalf("property list triples = %v", ts[5:])
	}
	if g := mustParse(t, doc); g.Len() != rdf.GraphOf(ts...).Len() {
		t.Fatalf("ParseString holds %d triples, ParseTriples %d distinct", g.Len(), rdf.GraphOf(ts...).Len())
	}
}

// TestLabelsAndFreshNodesAreDistinct: a blank node the parser makes for [ ]
// or a collection cell is never one the document names with a label, in
// whichever order the two appear.
func TestLabelsAndFreshNodesAreDistinct(t *testing.T) {
	for _, doc := range []string{
		"[ <http://p> 1 ] <http://q> _:ttl1 .",
		"_:ttl1 <http://q> [ <http://p> 1 ] .",
		"( 1 ) <http://q> _:ttl1 .",
		"_:ttl1 <http://q> ( 1 ) .",
	} {
		g, err := ParseString(doc)
		if err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		blanks := map[rdf.Term]bool{}
		for _, tr := range g.Triples() {
			for _, x := range []rdf.Term{tr.Subject, tr.Object} {
				if x.Kind() == rdf.KindBlank {
					blanks[x] = true
				}
			}
		}
		if len(blanks) != 2 {
			t.Errorf("%q reads as %d blank nodes, want 2:\n%s", doc, len(blanks), g)
		}
	}
}
