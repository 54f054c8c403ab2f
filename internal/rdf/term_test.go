package rdf

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestIRIString(t *testing.T) {
	i := IRI("http://grdf.org/ontology/grdf#Feature")
	if got, want := i.String(), "<http://grdf.org/ontology/grdf#Feature>"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if i.Kind() != KindIRI {
		t.Errorf("Kind() = %v, want KindIRI", i.Kind())
	}
}

func TestIRILocalNameAndNamespace(t *testing.T) {
	cases := []struct {
		iri   IRI
		local string
		ns    string
	}{
		{IRI(GRDFNS + "Feature"), "Feature", GRDFNS},
		{IRI("http://example.org/a/b"), "b", "http://example.org/a/"},
		{IRI("urn:nothing"), "urn:nothing", ""},
	}
	for _, c := range cases {
		if got := c.iri.LocalName(); got != c.local {
			t.Errorf("LocalName(%s) = %q, want %q", c.iri, got, c.local)
		}
		if got := c.iri.Namespace(); got != c.ns {
			t.Errorf("Namespace(%s) = %q, want %q", c.iri, got, c.ns)
		}
	}
}

func TestBlankNode(t *testing.T) {
	b := BlankNode("b1")
	if b.String() != "_:b1" {
		t.Errorf("String() = %q", b.String())
	}
	if b.Kind() != KindBlank {
		t.Errorf("Kind() = %v", b.Kind())
	}
	if b.Equal(IRI("b1")) {
		t.Error("blank node must not equal IRI with same text")
	}
}

func TestNewBlankNodeUnique(t *testing.T) {
	seen := map[BlankNode]bool{}
	for i := 0; i < 1000; i++ {
		b := NewBlankNode()
		if seen[b] {
			t.Fatalf("duplicate blank node %s", b)
		}
		seen[b] = true
	}
}

func TestLiteralString(t *testing.T) {
	cases := []struct {
		lit  Literal
		want string
	}{
		{NewString("hello"), `"hello"`},
		{NewLangString("chat", "EN"), `"chat"@en`},
		{NewInteger(42), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBoolean(true), `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{NewString("line1\nline2\t\"q\""), `"line1\nline2\t\"q\""`},
	}
	for _, c := range cases {
		if got := c.lit.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLiteralAccessors(t *testing.T) {
	if v, err := NewInteger(-7).Int(); err != nil || v != -7 {
		t.Errorf("Int() = %d, %v", v, err)
	}
	if v, err := NewDouble(2.5).Float(); err != nil || v != 2.5 {
		t.Errorf("Float() = %g, %v", v, err)
	}
	if v, err := NewBoolean(false).Bool(); err != nil || v {
		t.Errorf("Bool() = %t, %v", v, err)
	}
	when := time.Date(2008, 4, 7, 12, 0, 0, 0, time.UTC)
	if v, err := NewDateTime(when).Time(); err != nil || !v.Equal(when) {
		t.Errorf("Time() = %v, %v", v, err)
	}
	if _, err := NewString("x").Int(); err == nil {
		t.Error("Int() on string literal should fail")
	}
	if _, err := NewString("x").Float(); err == nil {
		t.Error("Float() on string literal should fail")
	}
	if _, err := NewInteger(1).Bool(); err == nil {
		t.Error("Bool() on integer literal should fail")
	}
}

func TestLiteralNumericKinds(t *testing.T) {
	if !NewNonNegativeInteger(2).IsNumeric() {
		t.Error("nonNegativeInteger should be numeric")
	}
	if NewString("2").IsNumeric() {
		t.Error("string should not be numeric")
	}
	if v, err := NewNonNegativeInteger(2).Int(); err != nil || v != 2 {
		t.Errorf("Int() = %d, %v", v, err)
	}
}

func TestCompareLiterals(t *testing.T) {
	cases := []struct {
		a, b Literal
		cmp  int
		ok   bool
	}{
		{NewInteger(1), NewDouble(2), -1, true},
		{NewInteger(3), NewInteger(3), 0, true},
		{NewDouble(4), NewInteger(3), 1, true},
		{NewBoolean(false), NewBoolean(true), -1, true},
		{NewString("a"), NewString("b"), -1, true},
		{NewString("1"), NewInteger(1), 0, false},
		{NewDateTime(time.Unix(100, 0)), NewDateTime(time.Unix(200, 0)), -1, true},
	}
	for _, c := range cases {
		cmp, ok := CompareLiterals(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("CompareLiterals(%s, %s) = %d, %t; want %d, %t", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestNewTripleValidation(t *testing.T) {
	s := IRI("http://e/s")
	p := IRI("http://e/p")
	o := NewString("v")
	if _, err := NewTriple(s, p, o); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	if _, err := NewTriple(o, p, s); err == nil {
		t.Error("literal subject accepted")
	}
	if _, err := NewTriple(s, BlankNode("b"), o); err == nil {
		t.Error("blank predicate accepted")
	}
	if _, err := NewTriple(nil, p, o); err == nil {
		t.Error("nil subject accepted")
	}
}

func TestTripleString(t *testing.T) {
	tr := T(IRI("http://e/s"), IRI("http://e/p"), NewString("v"))
	want := `<http://e/s> <http://e/p> "v" .`
	if tr.String() != want {
		t.Errorf("String() = %q, want %q", tr.String(), want)
	}
}

func TestQuadString(t *testing.T) {
	q := Quad{Triple: T(IRI("http://e/s"), IRI("http://e/p"), IRI("http://e/o"))}
	if !strings.HasSuffix(q.String(), "<http://e/o> .") {
		t.Errorf("default-graph quad = %q", q.String())
	}
	q.Graph = IRI("http://e/g")
	if !strings.Contains(q.String(), "<http://e/g> .") {
		t.Errorf("named-graph quad = %q", q.String())
	}
}

func TestPrefixesExpandCompact(t *testing.T) {
	p := CommonPrefixes()
	iri, err := p.Expand("grdf:Feature")
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if iri != IRI(GRDFNS+"Feature") {
		t.Errorf("Expand = %s", iri)
	}
	if got := p.Compact(iri); got != "grdf:Feature" {
		t.Errorf("Compact = %q", got)
	}
	if _, err := p.Expand("nope:X"); err == nil {
		t.Error("unknown prefix accepted")
	}
	if _, err := p.Expand("noColon"); err == nil {
		t.Error("name without colon accepted")
	}
	// IRI not covered by a binding stays absolute.
	if got := p.Compact(IRI("http://unbound.example/x")); got != "<http://unbound.example/x>" {
		t.Errorf("Compact(unbound) = %q", got)
	}
}

func TestPrefixesRebindAndClone(t *testing.T) {
	p := NewPrefixes()
	p.Bind("ex", "http://a/")
	p.Bind("ex", "http://b/")
	if got := p.Compact(IRI("http://a/x")); got != "<http://a/x>" {
		t.Errorf("stale reverse binding survived: %q", got)
	}
	q := p.Clone()
	q.Bind("zz", "http://c/")
	if _, ok := p.Namespace("zz"); ok {
		t.Error("Clone is not independent")
	}
}

// TestExtendedCompact: a table made by Extend compacts as the one table
// would that bound its base's bindings and then its own: its own prefix for
// a namespace wins over the base's, a base prefix it rebinds no longer
// compacts the base's namespace, and the base is never written.
func TestExtendedCompact(t *testing.T) {
	base := NewPrefixes()
	base.Bind("ex", "http://a/")
	base.Bind("old", "http://b/")
	base.Bind("deep", "http://a/deep/")
	ext := base.Extend()
	ext.Bind("mine", "http://a/")
	ext.Bind("old", "http://c/")
	ext.Bind("deep", "http://a/d/")
	for iri, want := range map[IRI]string{
		"http://a/x": "mine:x", "http://b/x": "<http://b/x>", "http://c/x": "old:x",
		"http://a/deep/x": "<http://a/deep/x>", "http://a/d/x": "deep:x", "http://z/x": "<http://z/x>",
	} {
		if got := ext.Compact(iri); got != want {
			t.Errorf("Compact(%s) = %q, want %q", iri, got, want)
		}
	}
	if got := base.Compact("http://a/deep/x"); got != "deep:x" {
		t.Errorf("the base compacts http://a/deep/x as %q after the extension rebound deep", got)
	}
}

func TestGraphBasicOps(t *testing.T) {
	g := NewGraph()
	a := T(IRI("http://e/s"), IRI("http://e/p"), NewString("1"))
	b := T(IRI("http://e/s"), IRI("http://e/p"), NewString("2"))
	if !g.Add(a) || !g.Add(b) {
		t.Fatal("Add returned false for new triples")
	}
	if g.Add(a) {
		t.Error("duplicate Add returned true")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
	if !g.Has(a) {
		t.Error("Has(a) = false")
	}
	if len(g.Match(IRI("http://e/s"), nil, nil)) != 2 {
		t.Error("Match subject wildcard failed")
	}
	if !g.Remove(a) || g.Remove(a) {
		t.Error("Remove semantics wrong")
	}
	if g.Len() != 1 {
		t.Errorf("Len after remove = %d", g.Len())
	}
}

func TestGraphAddRejectsInvalid(t *testing.T) {
	g := NewGraph()
	if g.Add(Triple{Subject: NewString("s"), Predicate: IRI("http://e/p"), Object: IRI("http://e/o")}) {
		t.Error("graph accepted literal subject")
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGraphObjectsSubjects(t *testing.T) {
	g := NewGraph()
	s, p := IRI("http://e/s"), IRI("http://e/p")
	g.Add(T(s, p, NewString("1")))
	g.Add(T(s, p, NewString("2")))
	g.Add(T(s, p, NewString("1"))) // duplicate
	if got := g.Objects(s, p); len(got) != 2 {
		t.Errorf("Objects = %v", got)
	}
	if o, ok := g.FirstObject(s, p); !ok || !o.Equal(NewString("1")) {
		t.Errorf("FirstObject = %v, %t", o, ok)
	}
	if got := g.Subjects(p, NewString("2")); len(got) != 1 || !got[0].Equal(s) {
		t.Errorf("Subjects = %v", got)
	}
}

func TestGraphCloneEqualDiff(t *testing.T) {
	g := GraphOf(
		T(IRI("http://e/a"), RDFType, IRI(GRDFNS+"Feature")),
		T(IRI("http://e/b"), RDFType, IRI(GRDFNS+"Feature")),
	)
	h := g.Clone()
	if !g.Equal(h) {
		t.Error("clone not equal")
	}
	h.Add(T(IRI("http://e/c"), RDFType, IRI(GRDFNS+"Feature")))
	if g.Equal(h) {
		t.Error("unequal graphs reported equal")
	}
	if d := h.Diff(g); len(d) != 1 {
		t.Errorf("Diff = %v", d)
	}
}

func TestGraphListRoundTrip(t *testing.T) {
	g := NewGraph()
	items := []Term{IRI("http://e/1"), NewString("two"), NewInteger(3)}
	head := g.List(items)
	got, err := g.ReadList(head)
	if err != nil {
		t.Fatalf("ReadList: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("ReadList len = %d", len(got))
	}
	for i := range items {
		if !got[i].Equal(items[i]) {
			t.Errorf("item %d = %v, want %v", i, got[i], items[i])
		}
	}
	if head := g.List(nil); !head.Equal(RDFNil) {
		t.Errorf("empty list head = %v", head)
	}
	if empty, err := g.ReadList(RDFNil); err != nil || len(empty) != 0 {
		t.Errorf("ReadList(nil) = %v, %v", empty, err)
	}
}

func TestGraphReadListErrors(t *testing.T) {
	g := NewGraph()
	b := BlankNode("cell")
	g.Add(T(b, RDFFirst, NewString("x")))
	// missing rdf:rest
	if _, err := g.ReadList(b); err == nil {
		t.Error("missing rdf:rest not detected")
	}
	g.Add(T(b, RDFRest, b)) // cycle
	if _, err := g.ReadList(b); err == nil {
		t.Error("cycle not detected")
	}
}

// Property: escaping never loses information for round-trippable content and
// literal String() is parseable-shaped (starts/ends correctly).
func TestQuickLiteralStringShape(t *testing.T) {
	f := func(v string) bool {
		s := NewString(v).String()
		return strings.HasPrefix(s, `"`) && strings.Contains(s, `"`) &&
			!strings.Contains(EscapeLiteral(v), "\n")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: graph Add/Has/Remove behave like a set.
func TestQuickGraphSetSemantics(t *testing.T) {
	f := func(keys []uint8) bool {
		g := NewGraph()
		ref := map[Triple]bool{}
		for _, k := range keys {
			tr := T(IRI("http://e/s"), IRI("http://e/p"), NewInteger(int64(k%16)))
			if k%3 == 0 {
				g.Remove(tr)
				delete(ref, tr)
			} else {
				g.Add(tr)
				ref[tr] = true
			}
		}
		if g.Len() != len(ref) {
			return false
		}
		for tr := range ref {
			if !g.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphAddAllTriplesString(t *testing.T) {
	g := GraphOf(
		T(IRI("http://e/a"), IRI("http://e/p"), NewString("1")),
	)
	h := GraphOf(
		T(IRI("http://e/a"), IRI("http://e/p"), NewString("1")), // dup
		T(IRI("http://e/b"), IRI("http://e/p"), NewString("2")),
	)
	if n := g.AddAll(h); n != 1 {
		t.Errorf("AddAll = %d, want 1", n)
	}
	if len(g.Triples()) != 2 {
		t.Errorf("Triples = %d", len(g.Triples()))
	}
	s := g.String()
	if !strings.Contains(s, "http://e/b") || strings.Count(s, "\n") != 1 {
		t.Errorf("String = %q", s)
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "iri" || KindBlank.String() != "blank" || KindLiteral.String() != "literal" {
		t.Error("TermKind strings wrong")
	}
	if TermKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestNewDecimalAndTimeVariants(t *testing.T) {
	d := NewDecimal(2.5)
	if d.Datatype != XSDDecimal || d.Value != "2.5" {
		t.Errorf("NewDecimal = %+v", d)
	}
	// dateTime without zone
	l := Literal{Value: "2008-04-07T12:00:00", Datatype: XSDDateTime}
	if _, err := l.Time(); err != nil {
		t.Errorf("zoneless dateTime rejected: %v", err)
	}
	// xsd:date
	d2 := Literal{Value: "2008-04-07", Datatype: XSDDate}
	when, err := d2.Time()
	if err != nil || when.Year() != 2008 {
		t.Errorf("date = %v, %v", when, err)
	}
	// bad forms
	for _, bad := range []Literal{
		{Value: "not a date", Datatype: XSDDateTime},
		{Value: "also bad", Datatype: XSDDate},
		{Value: "2008", Datatype: XSDString},
	} {
		if _, err := bad.Time(); err == nil {
			t.Errorf("bad time accepted: %+v", bad)
		}
	}
}

func TestCompactRejectsBadLocalParts(t *testing.T) {
	p := NewPrefixes()
	p.Bind("ex", "http://e/")
	// local parts with slashes or leading dots stay absolute
	for _, iri := range []IRI{"http://e/a/b", "http://e/.dot", "http://e/dot."} {
		if got := p.Compact(iri); !strings.HasPrefix(got, "<") {
			t.Errorf("Compact(%s) = %q, want absolute", iri, got)
		}
	}
	if got := p.Compact(IRI("http://e/")); got != "ex:" {
		t.Errorf("empty local = %q", got)
	}
}

// referenceString is Term.String as it was written before AppendTerm: the
// literal's value rebuilt rune by rune through a strings.Builder.
func referenceString(t Term) string {
	l, ok := t.(Literal)
	if !ok {
		switch v := t.(type) {
		case IRI:
			return "<" + string(v) + ">"
		case BlankNode:
			return "_:" + string(v)
		}
		return t.String()
	}
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range l.Value {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	if l.Lang != "" {
		sb.WriteString("@" + l.Lang)
	} else if l.Datatype != "" && l.Datatype != XSDString {
		sb.WriteString("^^<" + string(l.Datatype) + ">")
	}
	return sb.String()
}

// TestAppendTermIsString: the appending formatter, String and EscapeLiteral
// write the bytes the rune-by-rune formatter wrote, for every term shape —
// escapes, language tags, datatypes, no datatype, bytes that are not UTF-8 —
// and appending leaves what the buffer held alone.
func TestAppendTermIsString(t *testing.T) {
	values := []string{"", "plain", `quo"te`, `back\slash`, "line\nbreak\rreturn\ttab", "héllo ☃  ",
		"bad \xff utf8 \xc3", "\xf0\x9f", "nul\x00 and \x1f", "<tag>&amp;", `\"`, "ends in \\"}
	terms := []Term{IRI("http://e/a#b"), IRI(""), IRI("http://e/sp ace>"), BlankNode("b1"), BlankNode("")}
	for _, v := range values {
		terms = append(terms, NewString(v), NewLangString(v, "EN-gb"), Literal{Value: v}, Literal{Value: v, Datatype: XSDInteger},
			Literal{Value: v, Datatype: IRI("http://e/dt\"odd")}, Literal{Value: v, Datatype: XSDString, Lang: "fr"})
	}
	check := func(term Term) {
		t.Helper()
		want := referenceString(term)
		if got := term.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(AppendTerm([]byte("kept "), term)); got != "kept "+want {
			t.Errorf("AppendTerm = %q, want %q", got, "kept "+want)
		}
	}
	for _, term := range terms {
		check(term)
	}
	if err := quick.Check(func(v, lang string) bool {
		l := Literal{Value: v, Datatype: RDFLangString, Lang: lang}
		return l.String() == referenceString(l) && string(AppendTerm(nil, NewString(v))) == referenceString(NewString(v)) &&
			`"`+EscapeLiteral(v)+`"` == referenceString(NewString(v))
	}, nil); err != nil {
		t.Error(err)
	}
	tr := T(IRI("http://e/s"), IRI("http://e/p"), NewLangString("a\"b\xff", "en"))
	if got, want := tr.String(), referenceString(tr.Subject)+" "+referenceString(tr.Predicate)+" "+referenceString(tr.Object)+" ."; got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
	if s := "nothing to escape é"; EscapeLiteral(s) != s {
		t.Errorf("EscapeLiteral(%q) = %q", s, EscapeLiteral(s))
	}
}
