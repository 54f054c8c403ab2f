package gsacs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
)

// renderView is what the writers make of view's triples in viewFormats[f].
func renderView(f int, view *store.Store) string {
	write := [...]func(io.Writer, []rdf.Triple) error{
		func(w io.Writer, ts []rdf.Triple) error { return turtle.WriteTriples(w, ts, nil) },
		ntriples.WriteTriples,
	}[f]
	var sb strings.Builder
	if err := write(&sb, view.Triples()); err != nil {
		return "error: " + err.Error()
	}
	return sb.String()
}

// TestViewDocumentRenderedOncePerVersion: /v1/view answers from the document
// of the role's cache entry. However many exports of a format arrive at once,
// an entry renders it once; the next version — a /v1/mutate, a Clear, a
// reasoner swap, a Load of other triples at a generation the store has shown
// before — renders it once more, and what it serves is that version's view.
func TestViewDocumentRenderedOncePerVersion(t *testing.T) {
	e, sc, editor, _ := writeScenario(t)
	srv := NewServer(e, nil)
	site := sc.Chemical.Sites[0]

	type export struct{ body, etag string }
	// exportAll sends 16 concurrent exports per format of Hazmat's view and
	// returns, per format, the answer they all gave.
	exportAll := func(step string) (out [len(viewFormats)]export) {
		t.Helper()
		const readers = 16
		before := e.Cache().Snapshot().Documents
		var got [len(viewFormats)][readers]export
		var wg sync.WaitGroup
		start := make(chan struct{})
		for f, vf := range viewFormats {
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/view?role=Hazmat&format="+vf.name, nil))
					got[f][i] = export{rec.Body.String(), rec.Header().Get("ETag")}
					if rec.Code != http.StatusOK {
						got[f][i].body = fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
					}
				}()
			}
		}
		close(start)
		wg.Wait()
		if n := e.Cache().Snapshot().Documents - before; n != uint64(len(viewFormats)) {
			t.Errorf("%s: %d concurrent exports per format rendered %d documents, want one per format", step, readers, n)
		}
		for f := range got {
			out[f] = got[f][0]
			for _, x := range got[f] {
				if x != out[f] {
					t.Errorf("%s: concurrent %s exports disagree", step, viewFormats[f].name)
					break
				}
			}
			if want := renderView(f, e.View(datagen.RoleHazmat, seconto.ActionView)); out[f].body != want {
				t.Errorf("%s: %s export is not the current view\n%s", step, viewFormats[f].name, lineDiff(out[f].body, want))
			}
			if out[f].etag == "" {
				t.Errorf("%s: %s export has no ETag", step, viewFormats[f].name)
			}
		}
		return out
	}
	shows := func(step string, exports [len(viewFormats)]export, name string) {
		t.Helper()
		for f, x := range exports {
			if !strings.Contains(x.body, name) {
				t.Errorf("%s: the %s export does not show %q", step, viewFormats[f].name, name)
			}
		}
	}
	changed := func(step string, was, now [len(viewFormats)]export, want bool) {
		t.Helper()
		for f := range was {
			if (was[f].etag != now[f].etag) != want {
				t.Errorf("%s: %s ETag %s -> %s, want it to change: %v", step, viewFormats[f].name, was[f].etag, now[f].etag, want)
			}
		}
	}

	cold := exportAll("cold slot")
	shows("cold slot", cold, site.Name)

	rename := updateOp(rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(site.Name)),
		rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString("Renamed Plant")))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate?role="+editor.LocalName(), strings.NewReader("["+rename+"]")))
	if rec.Code != http.StatusOK {
		t.Fatalf("rename: %d %s", rec.Code, rec.Body)
	}
	written := exportAll("after /v1/mutate")
	shows("after /v1/mutate", written, "Renamed Plant")
	changed("after /v1/mutate", cold, written, true)

	e.Cache().Clear()
	changed("after Clear", written, exportAll("after Clear"), false)

	e.SetReasoner(e.Reasoner())
	changed("after SetReasoner", written, exportAll("after SetReasoner"), false)

	ts := sc.Merged.Triples()
	for i, tr := range ts {
		if tr.Subject == site.IRI && tr.Predicate == datagen.HasSiteName {
			ts[i].Object = rdf.NewString("Reloaded Plant")
		}
	}
	sc.Merged.Load(sc.Merged.Generation(), ts)
	loaded := exportAll("after a Load at the same generation")
	shows("after a Load at the same generation", loaded, "Reloaded Plant")
	changed("after a Load at the same generation", written, loaded, true)
}

// TestViewFormatIsTurtleOrNTriples: /v1/view has exactly the two documents an
// entry holds; any other format is a 400 that names them, not Turtle.
func TestViewFormatIsTurtleOrNTriples(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	for _, format := range []string{"rdfxml", "Turtle", "json"} {
		resp, body := doReq(t, srv, http.MethodGet, "/v1/view?role=Hazmat&format="+format)
		wantEnvelope(t, resp, body, "bad_request", http.StatusBadRequest)
		if !strings.Contains(body, "turtle|ntriples") {
			t.Errorf("format=%s: %s does not name the formats", format, body)
		}
	}
	if st := e.Cache().Snapshot(); st.Misses != 0 || st.Documents != 0 {
		t.Errorf("a refused export touched the cache: %+v", st)
	}
}

// goneClient is a ResponseWriter whose client has gone away: every Write
// fails. It records the statuses the handler sent, counting the implicit 200
// of a first Write as net/http does, and every byte it tried to send.
type goneClient struct {
	h        http.Header
	statuses []int
	sent     []byte
}

func (w *goneClient) Header() http.Header  { return w.h }
func (w *goneClient) WriteHeader(code int) { w.statuses = append(w.statuses, code) }
func (w *goneClient) Write(p []byte) (int, error) {
	if len(w.statuses) == 0 {
		w.statuses = append(w.statuses, http.StatusOK)
	}
	w.sent = append(w.sent, p...)
	return 0, errors.New("connection reset by peer")
}

// TestFailedWriteSendsOneStatus: when the client is gone mid-body, the
// documents of /v1/view and /v1/resource are still the only thing the handler
// tries to send — one status, no error envelope glued onto the RDF.
func TestFailedWriteSendsOneStatus(t *testing.T) {
	e, sc := scenarioEngine(t)
	srv := NewServer(e, nil)
	site := sc.Chemical.Sites[0].IRI
	for _, path := range []string{
		"/v1/view?role=EmergencyResponse",
		"/v1/view?role=EmergencyResponse&format=ntriples",
		"/v1/resource?role=EmergencyResponse&iri=" + url.QueryEscape(string(site)),
	} {
		w := &goneClient{h: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if len(w.statuses) != 1 || w.statuses[0] != http.StatusOK {
			t.Errorf("%s: statuses %v, want one 200", path, w.statuses)
		}
		if len(w.sent) == 0 || bytes.Contains(w.sent, []byte(`"code"`)) {
			t.Errorf("%s: sent %d bytes ending %q; want the document and no envelope", path, len(w.sent), w.sent[max(0, len(w.sent)-120):])
		}
		if got := w.h.Get("Content-Length"); got != fmt.Sprint(len(w.sent)) {
			t.Errorf("%s: Content-Length %s for a %d-byte document", path, got, len(w.sent))
		}
	}
}

// TestResourceIsTheTurtleItWas: /v1/resource, which hands filterResource's
// triples to the writer as they are, answers with the document the writer
// makes of the graph they used to be copied into — every resource, every role.
func TestResourceIsTheTurtleItWas(t *testing.T) {
	e, _ := scenarioEngine(t)
	srv := NewServer(e, nil)
	j := e.current()
	for _, role := range scenarioRoles {
		for _, res := range j.governedResources() {
			iri, ok := res.(rdf.IRI)
			if !ok {
				continue
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/v1/resource?role="+role.LocalName()+"&iri="+url.QueryEscape(string(iri)), nil))
			acc := j.lookup(role, seconto.ActionView, res)
			if !acc.Allowed {
				if rec.Code != http.StatusForbidden {
					t.Errorf("%s as %s: %d, want 403", res, role.LocalName(), rec.Code)
				}
				continue
			}
			g := rdf.NewGraph()
			for _, tr := range j.filterResource(res, acc) {
				g.Add(tr)
			}
			if want := turtle.Format(g, nil); rec.Code != http.StatusOK || rec.Body.String() != want {
				t.Errorf("%s as %s: status %d\n%s", res, role.LocalName(), rec.Code, lineDiff(rec.Body.String(), want))
			}
		}
	}
}
