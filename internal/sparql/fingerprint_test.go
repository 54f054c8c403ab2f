package sparql

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func mustFingerprint(t *testing.T, src string) (uint64, string) {
	t.Helper()
	q, err := ParseQuery(src, nil)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if q.Fingerprint == 0 {
		t.Fatalf("parse %q: zero fingerprint", src)
	}
	return q.Fingerprint, q.CanonicalForm
}

func TestFingerprintConstantsCollide(t *testing.T) {
	// Same shape, different constants — every pair must share a fingerprint.
	cases := [][2]string{
		{
			`SELECT ?s WHERE { ?s <http://ex/p> "alpha" . }`,
			`SELECT ?s WHERE { ?s <http://ex/p> "omega" . }`,
		},
		{
			`SELECT ?s WHERE { ?s <http://ex/p> 5 . FILTER(?x > 10) }`,
			`SELECT ?s WHERE { ?s <http://ex/p> 99 . FILTER(?x > 2000) }`,
		},
		{
			`SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o . } LIMIT 5`,
			`SELECT ?o WHERE { <http://ex/b> <http://ex/p> ?o . } LIMIT 500`,
		},
	}
	for i, c := range cases {
		fa, forma := mustFingerprint(t, c[0])
		fb, formb := mustFingerprint(t, c[1])
		if fa != fb {
			t.Errorf("case %d: fingerprints differ:\n  %s -> %016x %s\n  %s -> %016x %s",
				i, c[0], fa, forma, c[1], fb, formb)
		}
	}
}

func TestFingerprintShapesDiffer(t *testing.T) {
	// Structurally different queries must not share a fingerprint.
	shapes := []string{
		`SELECT ?s WHERE { ?s <http://ex/p> "x" . }`,
		`SELECT ?s WHERE { ?s <http://ex/q> "x" . }`,                       // different predicate
		`SELECT ?s WHERE { ?s <http://ex/p> ?o . }`,                        // constant became a variable
		`SELECT ?s WHERE { ?s <http://ex/p> "x" . ?s <http://ex/q> ?o . }`, // extra pattern
		`SELECT DISTINCT ?s WHERE { ?s <http://ex/p> "x" . }`,              // DISTINCT
		`ASK { ?s <http://ex/p> "x" . }`,                                   // different form
		`SELECT ?s WHERE { ?s <http://ex/p> "x" . } LIMIT 10`,              // LIMIT present
		`SELECT ?s WHERE { ?s <http://ex/p> "x" . FILTER(?s != ?s) }`,      // filter added
		`SELECT ?s WHERE { ?s <http://ex/p> "x" . } ORDER BY ?s`,           // order added
		`SELECT ?s WHERE { OPTIONAL { ?s <http://ex/p> "x" . } }`,          // optional wrapper
		`SELECT ?s WHERE { ?s <http://ex/p>/<http://ex/q> "x" . }`,         // path shape
		`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> "x" . }`,         // aggregate
		`SELECT ?s WHERE { ?s <http://ex/p> 4 . }`,                         // literal datatype differs from "x"
	}
	seen := make(map[uint64]string, len(shapes))
	for _, src := range shapes {
		fp, form := mustFingerprint(t, src)
		if prev, dup := seen[fp]; dup {
			t.Errorf("shape collision %016x:\n  %s\n  %s\n  canonical: %s", fp, prev, src, form)
		}
		seen[fp] = src
	}
}

func TestFingerprintVariableNamesIrrelevant(t *testing.T) {
	a := `SELECT ?site ?inv WHERE { ?site <http://ex/has> ?inv . ?inv <http://ex/amount> ?amt . FILTER(?amt > 7) }`
	b := `SELECT ?x ?y WHERE { ?x <http://ex/has> ?y . ?y <http://ex/amount> ?z . FILTER(?z > 7) }`
	fa, _ := mustFingerprint(t, a)
	fb, _ := mustFingerprint(t, b)
	if fa != fb {
		t.Errorf("variable renaming changed the fingerprint: %016x vs %016x", fa, fb)
	}
	// But a genuinely different variable *structure* (join broken) must not
	// collide.
	c := `SELECT ?x ?y WHERE { ?x <http://ex/has> ?y . ?w <http://ex/amount> ?z . FILTER(?z > 7) }`
	fc, _ := mustFingerprint(t, c)
	if fa == fc {
		t.Errorf("broken join collided with the joined shape: %016x", fa)
	}
}

func TestFingerprintBGPOrderIrrelevant(t *testing.T) {
	patterns := []string{
		`?s <http://ex/type> <http://ex/Chemical> .`,
		`?s <http://ex/stored> ?site .`,
		`?site <http://ex/inside> ?region .`,
		`?region <http://ex/name> "plume" .`,
	}
	rng := rand.New(rand.NewSource(42))
	base := ""
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(patterns))
		var sb strings.Builder
		sb.WriteString("SELECT ?s WHERE { ")
		for _, i := range perm {
			sb.WriteString(patterns[i])
			sb.WriteString(" ")
		}
		sb.WriteString("}")
		_, form := mustFingerprint(t, sb.String())
		if trial == 0 {
			base = form
		} else if form != base {
			t.Fatalf("permutation %v changed the canonical form:\n  %s\nvs base\n  %s", perm, form, base)
		}
	}
}

func TestCanonicalFormRedacts(t *testing.T) {
	src := `SELECT ?s WHERE { ?s <http://ex/name> "secret-value-42" . ?s <http://ex/code> 12345 . }`
	_, form := mustFingerprint(t, src)
	for _, leak := range []string{"secret-value-42", "12345"} {
		if strings.Contains(form, leak) {
			t.Errorf("canonical form leaks constant %q: %s", leak, form)
		}
	}
	if !strings.Contains(form, "$lit:") {
		t.Errorf("canonical form missing typed literal placeholder: %s", form)
	}
}

func TestFingerprintStableAcrossParses(t *testing.T) {
	src := `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . OPTIONAL { ?o <http://ex/q> "v" . } } ORDER BY ?s LIMIT 3`
	fp0, form0 := mustFingerprint(t, src)
	for i := 0; i < 5; i++ {
		fp, form := mustFingerprint(t, src)
		if fp != fp0 || form != form0 {
			t.Fatalf("reparse %d drifted: %016x %q vs %016x %q", i, fp, form, fp0, form0)
		}
	}
}

func TestEvalStatsSink(t *testing.T) {
	var got []EvalStats
	eng := fixture(t).SetStatsSink(func(s EvalStats) { got = append(got, s) })
	q := `SELECT ?s ?o WHERE { ?s <http://e/name> ?o . }`
	res, err := eng.Query(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("stats sink called %d times, want 1", len(got))
	}
	s := got[0]
	parsed, _ := ParseQuery(q, nil)
	if s.Fingerprint != parsed.Fingerprint {
		t.Errorf("sink fingerprint %016x != parsed %016x", s.Fingerprint, parsed.Fingerprint)
	}
	if s.Failed || s.Steps == 0 || s.Solutions != int64(len(res.Bindings())) {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.CanonicalForm == "" {
		t.Error("canonical form missing from stats")
	}
	if res.Stats != s {
		t.Errorf("result carries %+v, the sink got %+v", res.Stats, s)
	}
	// A failed evaluation still reaches the sink.
	if _, err := eng.Query(`SELECT ?s WHERE { GRAPH <http://e/g> { ?s ?p ?o } }`); err == nil {
		t.Fatal("GRAPH on an engine without a dataset evaluated")
	}
	if len(got) != 2 || !got[1].Failed {
		t.Errorf("after a failed evaluation the sink got %+v", got)
	}
}

func TestCanonicalFormShape(t *testing.T) {
	q, err := ParseQuery(`SELECT ?who WHERE { ?who <http://ex/role> "admin" . } LIMIT 10`, nil)
	if err != nil {
		t.Fatal(err)
	}
	form := q.CanonicalForm
	for _, want := range []string{"SELECT ?v0", "<http://ex/role>", "$lit:", "LIMIT $n"} {
		if !strings.Contains(form, want) {
			t.Errorf("canonical form %q missing %q", form, want)
		}
	}
	if strings.Contains(form, "admin") || strings.Contains(form, "who") {
		t.Errorf("canonical form %q retains raw names/constants", form)
	}
}

// TestQueryPrefixTablesAreTheirOwn: every query reads the one default prefix
// table, and what it binds — by a PREFIX declaration or a later Bind on
// q.Prefixes, a default prefix rebound included — stays in its own table:
// no other query and not the defaults see it.
func TestQueryPrefixTablesAreTheirOwn(t *testing.T) {
	parse := func(src string) *Query {
		t.Helper()
		q, err := ParseQuery(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a := parse(`PREFIX ex: <http://example.org/a#> SELECT ?s WHERE { ?s ex:p ?o }`)
	b := parse(`SELECT ?s WHERE { ?s app:p ?o }`)
	a.Prefixes.Bind("x", "http://example.org/x#")
	a.Prefixes.Bind("app", "http://example.org/other#")
	if ns, _ := a.Prefixes.Namespace("app"); ns != "http://example.org/other#" {
		t.Fatalf("a's own binding of app: %q", ns)
	}
	for name, p := range map[string]*rdf.Prefixes{"another query": b.Prefixes, "the defaults": commonPrefixes,
		"a later query": parse(`SELECT ?s WHERE { ?s ?p ?o }`).Prefixes} {
		for _, prefix := range []string{"ex", "x"} {
			if ns, ok := p.Namespace(prefix); ok {
				t.Errorf("%s sees a's binding %s: %s", name, prefix, ns)
			}
		}
		if ns, _ := p.Namespace("app"); ns != rdf.AppNS {
			t.Errorf("%s binds app to %q, want %q", name, ns, rdf.AppNS)
		}
	}
	var got []string
	a.Prefixes.Each(func(prefix, ns string) { got = append(got, prefix+"="+ns) })
	var want []string
	rdf.CommonPrefixes().Each(func(prefix, ns string) {
		if prefix == "app" {
			ns = "http://example.org/other#"
		}
		want = append(want, prefix+"="+ns)
	})
	want = append(want, "ex=http://example.org/a#", "x=http://example.org/x#")
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("a's table lists %v, want %v", got, want)
	}
}
