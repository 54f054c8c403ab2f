package ntriples

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// FuzzParse throws arbitrary byte strings at the N-Triples parser: no panic,
// no hang, and a successfully parsed document's graph survives a
// Format/ParseString round trip as the same set of triples.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"<http://a> <http://b> <http://c> .\n",
		`<http://a> <http://b> "lit"@en .` + "\n",
		`<http://a> <http://b> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .` + "\n",
		"_:b0 <http://p> _:b1 .\n# comment\n",
		`<http://a> <http://b> "esc\"q\nnl" .` + "\n",
		"<http://a> <http://b> .\n",  // missing object
		"<http://a <http://b> <c> .", // broken IRI
		"\x00\xff\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<14 {
			return // bound per-input work; length adds no parser states
		}
		g, err := ParseString(doc)
		if err != nil || g == nil {
			return
		}
		back, err := ParseString(Format(g))
		if err != nil {
			t.Fatalf("round trip rejected our own output: %v\nsource: %q", err, doc)
		}
		if !back.Equal(g) {
			t.Fatalf("round trip changed the graph\nsource: %q\nhave:\n%s\nwant:\n%s", doc, back, g)
		}
	})
}

// bs writes each '~' of s as a backslash, so escapes read as they are sent.
func bs(s string) string { return strings.ReplaceAll(s, "~", `\`) }

// poisonLine is a statement whose IRI escape decodes to '>': written back
// raw, that IRI would end early and leave the line unreadable.
var poisonLine = bs(`<http://grdf.org/app#chem_site003> <http://grdf.org/app#hasNote> <http://e/a~u003Eb> .`)

// FuzzStatementRoundTrip holds the write-ahead log's contract: every
// statement ParseTriple accepts, written back by rdf.AppendTriple, parses to
// an equal triple.
func FuzzStatementRoundTrip(f *testing.F) {
	for _, seed := range []string{
		poisonLine,
		"<http://a> <http://b> <http://c> .",
		bs(`_:x <http://p> "v~u00E9~t~"q~""@EN .`),
		bs(`<http://a~u0041> <http://b> "x~U0001F30A` + "\xff" + `" .`),
		bs(`<http://a~~u005Cx> <http://b> "1"^^<http://t~u0041> . # c`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want, err := ParseTriple(line)
		if err != nil {
			return
		}
		written := string(rdf.AppendTriple(nil, want))
		got, err := ParseTriple(written)
		if err != nil {
			t.Fatalf("%q parsed, but its written form %q did not: %v", line, written, err)
		}
		if got != want {
			t.Fatalf("%q parsed to %v, its written form %q to %v", line, want, written, got)
		}
	})
}
