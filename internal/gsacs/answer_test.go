package gsacs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/datagen"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestGraphAnswersAreTheBytesTheyWere: a CONSTRUCT or DESCRIBE answer is
// the bytes a json.Encoder writes of {"triples": the N-Triples document} —
// with <, > and & as \u003c, \u003e and \u0026, U+2028 and U+2029 escaped,
// the short escapes of \b \f \n \r \t, and U+FFFD for broken UTF-8 — and over
// the 12-site scenario the CONSTRUCT, DESCRIBE and ASK bodies are the ones
// that map-and-encoder writer gave (their SHA-256).
func TestGraphAnswersAreTheBytesTheyWere(t *testing.T) {
	odd := []string{"plain", "<tag>&amp;", "line\nbreak\ttab\rcr\bbs\fff\x00nul\x1f\x7f", "sep \u2028 \u2029 é ☃", "bad \xff utf8 \xc3", `quo"te back\slash`}
	st := store.New()
	for i, s := range odd {
		site := rdf.IRI(fmt.Sprintf("http://e/site%d?a=1&b=<%d>", i, i))
		st.Add(rdf.T(site, rdf.IRI("http://e/label"), rdf.NewString(s)))
		st.Add(rdf.T(site, rdf.IRI("http://e/lang"), rdf.NewLangString(s, "en")))
	}
	eng := sparql.NewEngine(st)
	for _, q := range []string{
		`CONSTRUCT { ?s <http://e/copy> ?o } WHERE { ?s ?p ?o }`,
		`DESCRIBE ?s WHERE { ?s <http://e/label> ?o }`,
	} {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"triples": ntriples.Format(res.Graph)}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		(&Server{}).writeResult(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), res)
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%s:\n got %q\nwant %q", q, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", q, ct)
		}
	}

	golden := []struct{ role, q, sum string }{
		{"MainRep", `CONSTRUCT { ?s <http://e/isa> ?c } WHERE { ?s a ?c }`, "a96730b4c606d8be"},
		{"Hazmat", `CONSTRUCT { ?s <http://e/named> ?n } WHERE { ?s app:hasSiteName ?n }`, "63fdaebcc3e84238"},
		{"EmergencyResponse", `CONSTRUCT { ?site <http://e/stores> ?chem } WHERE { ?site app:hasChemicalInfo ?info . ?info app:chemical ?rec . ?rec app:hasChemName ?chem }`, "035204ef6d26baeb"},
		{"Hazmat", `DESCRIBE ?s WHERE { ?s a app:ChemSite }`, "5d2b4c566c6489a7"},
		{"EmergencyResponse", `DESCRIBE ?s WHERE { ?s a app:ChemSite }`, "1a4fe89be9a972ae"},
		{"MainRep", `ASK { ?s a app:ChemSite }`, "a9e556477dd23f68"},
		{"Hazmat", `ASK { ?s a <http://e/Nothing> }`, "cae5ad65c7bfa695"},
	}
	srv, _ := shapeServer(12)
	for _, g := range golden {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, queryRequest(rdf.IRI(seconto.NS+g.role), g.q))
		if sum := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes()))[:16]; rec.Code != http.StatusOK || sum != g.sum {
			t.Errorf("%s as %s: %d, body %s (%d bytes); want %s", g.q, g.role, rec.Code, sum, rec.Body.Len(), g.sum)
		}
	}
}

// TestAnswersShareCellsAcrossVersions: the entries of one slot share the
// /v1/query cells of their view's dictionary, and write their answers from
// them at the same time as each other and as the commits that make the
// slot's next entries, whose new terms add to them. Every answer, of the
// listing and the aggregation walk for every role, is the per-cell writer's
// of its result. Run it with -race.
func TestAnswersShareCellsAcrossVersions(t *testing.T) {
	e, sc, editor, _ := writeScenario(t)
	srv := NewServer(e, nil)
	ctx := context.Background()
	var queries []*sparql.Query
	for _, sh := range queryShapes(sc) {
		if sh.name == "list" || sh.name == "agg" {
			q, err := e.Parse(sh.q)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	rename := func(i int) {
		site := sc.Chemical.Sites[i%len(sc.Chemical.Sites)]
		was, _ := sc.Merged.FirstObject(site.IRI, datagen.HasSiteName)
		op := updateOp(rdf.T(site.IRI, datagen.HasSiteName, was), rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(fmt.Sprintf("Plant %d", i))))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate?role="+editor.LocalName(), strings.NewReader("["+op+"]")))
		if rec.Code != http.StatusOK {
			t.Errorf("rename %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	entries := func() []*cacheEntry {
		var out []*cacheEntry
		for _, role := range scenarioRoles {
			out = append(out, e.viewEntry(ctx, role, seconto.ActionView))
		}
		return out
	}
	old := entries()
	rename(0)
	patched := entries()
	for i := range old {
		if patched[i].cells != old[i].cells {
			t.Fatalf("%s: the patched entry does not share its predecessor's cells", scenarioRoles[i].LocalName())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	check := func(ents []*cacheEntry) {
		for _, ent := range ents {
			for _, q := range queries {
				res, err := ent.sparql.EvalCtx(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				got, want := httptest.NewRecorder(), httptest.NewRecorder()
				srv.writeResult(got, req, res)
				srv.perCellWriteResult(want, req, res)
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("an answer of generation %d is not the per-cell writer's\n%s",
						ent.base.Generation(), lineDiff(got.Body.String(), want.Body.String()))
				}
			}
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 4 {
				check([][]*cacheEntry{old, patched}[i%2])
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i <= 8; i++ {
			rename(i)
			check(entries())
		}
	}()
	close(start)
	wg.Wait()
	for i, now := range entries() {
		if now.cells != old[i].cells {
			t.Errorf("%s: the entries of the writes did not keep the cells", scenarioRoles[i].LocalName())
		}
	}
	// Hazmat sees the site names: the last rename's is a cell of its listing.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, queryRequest(datagen.RoleHazmat, queryShapes(sc)[1].q))
	if !strings.Contains(rec.Body.String(), `"\"Plant 8\""`) {
		t.Errorf("Hazmat's listing after the renames:\n%s", rec.Body)
	}
}

// perCellWriteResult is the writer /v1/query answered with before each term's
// cell was made once per view dictionary: every cell rendered where it is
// written. It is kept as the oracle of the bytes.
//
// perCellWriteResult renders a SPARQL result in a SPARQL-JSON-like shape:
// {"boolean":…} for ASK, {"triples":…} for CONSTRUCT and DESCRIBE, and for
// SELECT {"head":{"vars":[…]},"results":[{var:term,…},…]}.
//
// A SELECT can run to thousands of rows, so its body is appended to one
// buffer, each row's keys in projection order, and flushed to the response as
// the buffer fills. A cell goes from the result's table to the buffer through
// one scratch slice: no map per row, no string per term.
func (s *Server) perCellWriteResult(w http.ResponseWriter, r *http.Request, res *sparql.Result) {
	switch res.Kind {
	case sparql.Ask:
		s.writeJSON(w, r, map[string]any{"boolean": res.Bool})
		return
	case sparql.Construct, sparql.Describe:
		s.writeJSON(w, r, map[string]any{"triples": ntriples.Format(res.Graph)})
		return
	}
	const flushAt = 32 << 10
	w.Header().Set("Content-Type", "application/json")
	buf := make([]byte, 0, min(flushAt+512, 128+64*len(res.Vars)*(1+res.Len())))
	keys := make([][]byte, len(res.Vars))
	buf = append(buf, `{"head":{"vars":[`...)
	for i, v := range res.Vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = perCellJSONString(buf, []byte(v))
		// A variable projected twice is one key of a row, as it was one key
		// of the map: only its first mention gets one.
		if !slices.Contains(res.Vars[:i], v) {
			keys[i] = append(perCellJSONString(nil, []byte(v)), ':')
		}
	}
	buf = append(buf, `]},"results":[`...)
	var term []byte // one cell's N-Triples form
	for i, n := 0, res.Len(); i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for k := range res.Vars {
			t := res.Term(i, k)
			if t == nil || keys[k] == nil {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, keys[k]...)
			term = rdf.AppendTerm(term[:0], t)
			buf = perCellJSONString(buf, term)
		}
		buf = append(buf, '}')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				obs.RequestOf(r.Context()).Error = "write response: " + err.Error()
				return
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "]}\n"...)
	if _, err := w.Write(buf); err != nil {
		obs.RequestOf(r.Context()).Error = "write response: " + err.Error()
	}
}

// perCellJSONString appends s as a JSON string literal. Bytes that are not
// valid UTF-8 become U+FFFD, as encoding/json writes them.
func perCellJSONString(buf, s []byte) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRune(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		buf = append(buf, s[start:i]...)
		switch {
		case c >= utf8.RuneSelf:
			buf = append(buf, `\ufffd`...)
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
