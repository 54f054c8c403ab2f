package turtle

import (
	"bytes"
	"testing"
)

// FuzzParse drives the Turtle lexer and parser with arbitrary documents.
// Invariants: no panic, no hang, and any graph the parser accepts is written
// as the term-level writer writes it, and reads back as the same graph up to
// a renaming of blank nodes (the writer and parser agree on the grammar).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .",
		"@prefix app: <http://grdf.org/app#> .\napp:s1 a app:ChemSite ; app:hasSiteName \"Plant\" .",
		"<http://a> <http://b> \"x\"@en, \"y\"^^<http://t> .",
		"[ <http://p> ( 1 2.5 \"three\" ) ] <http://q> true .",
		"@base <http://base/> .\n<rel> <p> <o> .",
		"# just a comment",
		"@prefix broken",
		"ex:s ex:p ex:o .", // undeclared prefix
		"\"unterminated",
		"\x00\x01\x02",
		"_:ttl1 <http://p> [ <http://q> ( 1 ) ] .", // a label the parser also makes
		"[<>(\"\x80\")].",                          // a byte that is not UTF-8
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<14 {
			return // bound per-input work; length adds no parser states
		}
		g, err := ParseString(doc)
		if err != nil || g == nil || len(g.Triples()) == 0 {
			return
		}
		out := Format(g, nil)
		var ref bytes.Buffer
		if err := termWriteTriples(&ref, g.Triples(), nil); err != nil || ref.String() != out {
			t.Fatalf("the writer's document is not the term-level writer's (%v)\n%s\nsource: %q", err, firstDiff(out, ref.String()), doc)
		}
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("round trip rejected our own output: %v\nsource: %q", err, doc)
		}
		if !isomorphic(g, back) {
			t.Fatalf("round trip changed the graph\nsource: %q\nwritten:\n%s\nread back:\n%s", doc, out, back)
		}
	})
}
