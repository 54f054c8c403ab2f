package gsacs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// HTTP error-path coverage for the mutation endpoints: every failure mode
// must answer the uniform {"error","code","trace_id"} envelope with the
// right status, and the store must be untouched.

type errEnvelope struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id"`
}

// wantEnvelope asserts a well-formed error envelope with the given code.
func wantEnvelope(t *testing.T, resp *http.Response, body, code string, status int) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, status, body)
	}
	var env errEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, body)
	}
	if env.Code != code || env.Error == "" || env.TraceID == "" {
		t.Fatalf("envelope = %+v, want code %q with non-empty error and trace_id", env, code)
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr != "" && hdr != env.TraceID {
		t.Errorf("trace_id %q does not match X-Trace-Id header %q", env.TraceID, hdr)
	}
}

// op renders one /v1/mutate insert or delete op over the given statements.
func op(kind string, ts ...rdf.Triple) string {
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.String()
	}
	return fmt.Sprintf(`{"op":%q,"triples":%q}`, kind, strings.Join(lines, "\n"))
}

// updateOp renders one /v1/mutate update op.
func updateOp(old, new rdf.Triple) string {
	return fmt.Sprintf(`{"op":"update","old":%q,"new":%q}`, old.String(), new.String())
}

func TestServerInsertUnauthorized(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	tr := rdf.T(site, datagen.HasSiteName, rdf.NewString("intruder"))

	resp, body := postMutate(t, srv, "Nobody", "["+op("insert", tr)+"]")
	wantEnvelope(t, resp, body, "forbidden", http.StatusForbidden)
	if e.Data().Has(tr) {
		t.Error("unauthorized insert landed in the store")
	}
}

func TestServerDeleteUnauthorized(t *testing.T) {
	// The editor role holds Modify on site names but no Delete rights at all.
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	name, ok := e.Data().FirstObject(site, datagen.HasSiteName)
	if !ok {
		t.Fatal("scenario site has no name")
	}
	tr := rdf.T(site, datagen.HasSiteName, name)

	resp, body := postMutate(t, srv, "SiteEditor", "["+op("delete", tr)+"]")
	wantEnvelope(t, resp, body, "forbidden", http.StatusForbidden)
	if !e.Data().Has(tr) {
		t.Error("unauthorized delete removed the triple")
	}
}

// TestServerUpdateUnauthorized: an unauthorized role updating a triple that
// exists answers 403 (authorization runs before the existence check), a
// property-scoped role may not rewrite rdf:type, and the same swap by an
// authorized role lands.
func TestServerUpdateUnauthorized(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	name, ok := e.Data().FirstObject(site, datagen.HasSiteName)
	if !ok {
		t.Fatal("scenario site has no name")
	}
	cur := rdf.T(site, datagen.HasSiteName, name)
	repl := rdf.T(site, datagen.HasSiteName, rdf.NewString("hijack"))

	resp, body := postMutate(t, srv, "Nobody", "["+updateOp(cur, repl)+"]")
	wantEnvelope(t, resp, body, "forbidden", http.StatusForbidden)

	evil := rdf.T(site, rdf.RDFType, rdf.IRI(rdf.AppNS+"Evil"))
	resp, body = postMutate(t, srv, "SiteEditor", "["+op("insert", evil)+"]")
	wantEnvelope(t, resp, body, "forbidden", http.StatusForbidden)
	if !e.Data().Has(cur) || e.Data().Has(repl) || e.Data().Has(evil) {
		t.Error("denied mutations changed the store")
	}

	resp, body = postMutate(t, srv, "SiteEditor", "["+updateOp(cur, repl)+"]")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"applied":1`) {
		t.Fatalf("authorized update = %d %s", resp.StatusCode, body)
	}
	if !e.Data().Has(repl) || e.Data().Has(cur) {
		t.Error("update did not swap the triple")
	}
}

// TestServerMutateNotPersisted: a commit-hook refusal (the durable layer
// saying no) must surface as 500 "not_persisted", and the store must not
// contain the triple.
func TestServerMutateNotPersisted(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	e.Data().SetGroupCommitHook(func([][]store.Op) error {
		return errors.New("disk on fire")
	})
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	tr := rdf.T(site, datagen.HasSiteName, rdf.NewString("doomed"))

	resp, body := postMutate(t, srv, "Admin", "["+op("insert", tr)+"]")
	wantEnvelope(t, resp, body, "not_persisted", http.StatusInternalServerError)
	if e.Data().Has(tr) {
		t.Error("refused mutation landed in the store")
	}
}

// TestServerReadinessGate: while recovery is in progress the data plane
// answers 503 "recovering" while /healthz reports the phase and /metrics
// stays scrapeable; once the readiness probe flips, traffic flows. (Which
// rows are exempt is checked row by row in TestRouteTable.)
func TestServerReadinessGate(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	ready := false
	srv := httptest.NewServer(NewServer(e, nil,
		WithMetrics(obs.NewRegistry()),
		WithReadiness(func() bool { return ready })))
	defer srv.Close()

	for _, path := range []string{"/v1/roles", "/v1/view?role=MainRep", "/v1/query?role=Hazmat&q=x"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env errEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || env.Code != "recovering" {
			t.Errorf("GET %s while recovering = %d code=%q, want 503 recovering", path, resp.StatusCode, env.Code)
		}
	}

	// Mutations are refused too — nothing may be acked before the log is open.
	tr := rdf.T(sc.Chemical.Sites[0].IRI, datagen.HasSiteName, rdf.NewString("early"))
	resp, body := postMutate(t, srv, "Admin", "["+op("insert", tr)+"]")
	wantEnvelope(t, resp, body, "recovering", http.StatusServiceUnavailable)

	// /healthz reports the recovering state without touching the engine.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "recovering" {
		t.Errorf("/healthz while recovering = %d %q", resp.StatusCode, health.Status)
	}

	// /metrics stays reachable for scrapes during recovery.
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics while recovering = %d, want 200", resp.StatusCode)
	}

	ready = true
	resp, err = srv.Client().Get(srv.URL + "/v1/roles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/roles after ready = %d, want 200", resp.StatusCode)
	}
}
