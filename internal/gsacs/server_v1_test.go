package gsacs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grdf"
)

func v1TestServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *Engine, *datagen.Scenario) {
	t.Helper()
	e, sc := scenarioEngine(t)
	repo := NewOntoRepository()
	repo.Register("grdf", grdf.Ontology())
	srv := httptest.NewServer(NewServer(e, repo, opts...))
	t.Cleanup(srv.Close)
	return srv, e, sc
}

func doReq(t *testing.T, srv *httptest.Server, method, path string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestServerErrorEnvelope checks the uniform error body: every error carries
// {"error", "code", "trace_id"} and the trace ID matches the X-Trace-Id
// response header so clients can report correlatable failures.
func TestServerErrorEnvelope(t *testing.T) {
	srv, _, _ := v1TestServer(t)
	resp, body := doReq(t, srv, http.MethodGet, "/v1/view")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("view without role = %d", resp.StatusCode)
	}
	var env struct {
		Error   string `json:"error"`
		Code    string `json:"code"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, body)
	}
	if env.Error == "" || env.Code != "bad_request" || env.TraceID == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr != "" && hdr != env.TraceID {
		t.Errorf("trace_id %q does not match X-Trace-Id header %q", env.TraceID, hdr)
	}

	// Unknown roles on /resource surface as forbidden, same envelope.
	resp, body = doReq(t, srv, http.MethodGet, "/v1/resource?role=Nobody&iri=http%3A%2F%2Fx%2Fy")
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(body, `"forbidden"`) {
		t.Errorf("resource for unknown role = %d %s", resp.StatusCode, body)
	}
}

// TestServerMethodNotAllowed checks that read endpoints reject every verb but
// GET and HEAD — POST included: no read handler takes a body — and the write
// endpoint every verb but POST, with 405, an Allow header, and the error
// envelope.
func TestServerMethodNotAllowed(t *testing.T) {
	srv, _, _ := v1TestServer(t)
	for _, p := range []string{"/v1/roles", "/v1/query", "/v1/audit", "/healthz"} {
		for _, method := range []string{http.MethodDelete, http.MethodPost} {
			resp, body := doReq(t, srv, method, p)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d", method, p, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q", method, p, allow)
			}
			if !strings.Contains(body, `"method_not_allowed"`) {
				t.Errorf("%s %s body = %s", method, p, body)
			}
		}
	}
	if resp, _ := doReq(t, srv, http.MethodHead, "/v1/roles"); resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /v1/roles = %d", resp.StatusCode)
	}
	for _, method := range []string{http.MethodPut, http.MethodGet} {
		resp, body := doReq(t, srv, method, "/v1/mutate?role=Admin")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" ||
			!strings.Contains(body, `"method_not_allowed"`) {
			t.Errorf("%s /v1/mutate = %d Allow=%q %s", method, resp.StatusCode, resp.Header.Get("Allow"), body)
		}
	}
}

// TestServerQueryTimeout checks the -query-timeout wiring: an immediately
// expiring deadline turns into 504 with code "timeout".
func TestServerQueryTimeout(t *testing.T) {
	srv, _, _ := v1TestServer(t, WithQueryTimeout(time.Nanosecond))
	q := url.QueryEscape(`SELECT ?n WHERE { ?s app:hasChemName ?n }`)
	resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q="+q)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("query under 1ns deadline = %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"timeout"`) || !strings.Contains(body, "deadline") {
		t.Errorf("timeout body = %s", body)
	}
}

// TestServerQueryExplain checks explain=1 returns the planner rendering
// without evaluating the query.
func TestServerQueryExplain(t *testing.T) {
	srv, _, _ := v1TestServer(t)
	q := url.QueryEscape(`SELECT ?s ?n WHERE { ?s a app:ChemSite . ?s app:hasSiteName ?n }`)
	resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&explain=1&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d %s", resp.StatusCode, body)
	}
	var out struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Plan, "BGP plan") {
		t.Errorf("plan = %q", out.Plan)
	}
	if resp, _ := doReq(t, srv, http.MethodGet, "/v1/query?role=MainRep&explain=1&q=NOT+SPARQL"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("explain of bad query = %d", resp.StatusCode)
	}
}
