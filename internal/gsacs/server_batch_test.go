package gsacs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Coverage for the batched mutation API: /v1/mutate applies a heterogeneous
// op list as ONE atomic commit — one store generation, all-or-nothing — and
// /v1/store exposes the MVCC and group-commit vitals the load harness asserts
// against.

type mutateResponse struct {
	Applied    int    `json:"applied"`
	Changed    int    `json:"changed"`
	Results    []int  `json:"results"`
	Generation uint64 `json:"generation"`
}

// postMutate POSTs a JSON op list to /v1/mutate and returns the response.
func postMutate(t *testing.T, srv *httptest.Server, role, body string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/mutate?role="+role, "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestServerMutateBatchHappyPath(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	name, ok := e.Data().FirstObject(site, datagen.HasSiteName)
	if !ok {
		t.Fatal("scenario site has no name")
	}
	genBefore := e.Data().Generation()

	tag1 := rdf.T(site, datagen.HasSiteName, rdf.NewString("annex-a"))
	tag2 := rdf.T(site, datagen.HasSiteName, rdf.NewString("annex-b"))
	oldT := rdf.T(site, datagen.HasSiteName, name)
	newT := rdf.T(site, datagen.HasSiteName, rdf.NewString("renamed"))
	body := fmt.Sprintf(`[
		{"op":"insert","triples":%q},
		{"op":"update","old":%q,"new":%q},
		{"op":"delete","triples":%q}
	]`, tag1.String()+"\n"+tag2.String(), oldT.String(), newT.String(), tag2.String())

	resp, raw := postMutate(t, srv, "Admin", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d %s", resp.StatusCode, raw)
	}
	var out mutateResponse
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	if out.Applied != 3 || out.Changed != 4 {
		t.Errorf("applied=%d changed=%d, want 3 and 4; body %s", out.Applied, out.Changed, raw)
	}
	if len(out.Results) != 3 || out.Results[0] != 2 || out.Results[1] != 1 || out.Results[2] != 1 {
		t.Errorf("results = %v, want [2 1 1]", out.Results)
	}
	// The whole batch is one commit: exactly one generation bump, reported in
	// the response so a client can fence later reads.
	if out.Generation != genBefore+1 || e.Data().Generation() != genBefore+1 {
		t.Errorf("generation %d -> (%d reported, %d actual), want one bump",
			genBefore, out.Generation, e.Data().Generation())
	}
	data := e.Data()
	if !data.Has(tag1) || data.Has(tag2) || !data.Has(newT) || data.Has(oldT) {
		t.Error("batch left the wrong final state")
	}
}

// TestServerMutateBatchAtomicOnDenial: a mid-batch authorization failure must
// answer 403 and leave NOTHING applied — including the ops before the denied
// one.
func TestServerMutateBatchAtomicOnDenial(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	genBefore := e.Data().Generation()

	allowed := rdf.T(site, datagen.HasSiteName, rdf.NewString("sneaky-prefix"))
	// SiteEditor holds Modify on site names but no Delete rights.
	name, _ := e.Data().FirstObject(site, datagen.HasSiteName)
	denied := rdf.T(site, datagen.HasSiteName, name)
	body := fmt.Sprintf(`[
		{"op":"insert","triples":%q},
		{"op":"delete","triples":%q}
	]`, allowed.String(), denied.String())

	resp, raw := postMutate(t, srv, "SiteEditor", body)
	wantEnvelope(t, resp, raw, "forbidden", http.StatusForbidden)
	if !strings.Contains(raw, "op 1") {
		t.Errorf("error does not name the failing op index: %s", raw)
	}
	if e.Data().Has(allowed) || e.Data().Generation() != genBefore {
		t.Error("denied batch partially applied")
	}
}

// TestServerMutateBatchUpdateAbsent: an update inside a batch has MustExist
// semantics — 404, atomically.
func TestServerMutateBatchUpdateAbsent(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	genBefore := e.Data().Generation()

	ins := rdf.T(site, datagen.HasSiteName, rdf.NewString("before-miss"))
	oldT := rdf.T(site, datagen.HasSiteName, rdf.NewString("never-existed"))
	newT := rdf.T(site, datagen.HasSiteName, rdf.NewString("whatever"))
	body := fmt.Sprintf(`[
		{"op":"insert","triples":%q},
		{"op":"update","old":%q,"new":%q}
	]`, ins.String(), oldT.String(), newT.String())

	resp, raw := postMutate(t, srv, "Admin", body)
	wantEnvelope(t, resp, raw, "not_found", http.StatusNotFound)
	if e.Data().Has(ins) || e.Data().Generation() != genBefore {
		t.Error("batch with missing update target partially applied")
	}
}

func TestServerMutateBatchBadRequests(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()
	site := sc.Chemical.Sites[0].IRI
	tr := rdf.T(site, datagen.HasSiteName, rdf.NewString("x"))
	before := e.Data().Len()

	cases := map[string]string{
		"not json":          `this is not json`,
		"object not array":  `{"op":"insert"}`,
		"unknown op":        fmt.Sprintf(`[{"op":"upsert","triples":%q}]`, tr.String()),
		"insert no triples": `[{"op":"insert","triples":""}]`,
		"bad n-triples":     `[{"op":"insert","triples":"not n-triples"}]`,
		"update two olds":   fmt.Sprintf(`[{"op":"update","old":%q,"new":%q}]`, tr.String()+"\n"+rdf.T(site, datagen.HasSiteName, rdf.NewString("y")).String(), tr.String()),
		"update no new":     fmt.Sprintf(`[{"op":"update","old":%q}]`, tr.String()),
		"update other subj": "[" + updateOp(tr, rdf.T(rdf.IRI("http://x/other"), datagen.HasSiteName, rdf.NewString("y"))) + "]",
		"empty batch":       `[]`,
	}
	for name, body := range cases {
		resp, raw := postMutate(t, srv, "Admin", body)
		if name == "empty batch" {
			// An empty list is a well-formed no-op, not an error.
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, want 200; body %s", name, resp.StatusCode, raw)
			}
			continue
		}
		wantEnvelope(t, resp, raw, "bad_request", http.StatusBadRequest)
	}

	// A missing role is refused before the body is read.
	resp, raw := postMutate(t, srv, "", "["+op("insert", tr)+"]")
	wantEnvelope(t, resp, raw, "bad_request", http.StatusBadRequest)
	if e.Data().Len() != before {
		t.Errorf("rejected batches changed the store: %d -> %d", before, e.Data().Len())
	}
}

func TestServerStoreStats(t *testing.T) {
	e, sc, _, _ := writeScenario(t)
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()

	// Drive one batch through so the group-commit counters are non-zero.
	site := sc.Chemical.Sites[0].IRI
	tr := rdf.T(site, datagen.HasSiteName, rdf.NewString("stats-probe"))
	resp, raw := postMutate(t, srv, "Admin",
		fmt.Sprintf(`[{"op":"insert","triples":%q},{"op":"delete","triples":%q}]`, tr.String(), tr.String()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch = %d %s", resp.StatusCode, raw)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/store = %d", resp.StatusCode)
	}
	var out struct {
		Generation    uint64 `json:"generation"`
		Triples       int    `json:"triples"`
		Cardinalities struct {
			Subjects   int `json:"subjects"`
			Predicates int `json:"predicates"`
			Objects    int `json:"objects"`
		} `json:"cardinalities"`
		DictTerms   int `json:"dict_terms"`
		GroupCommit struct {
			Groups        uint64            `json:"groups"`
			Ops           uint64            `json:"ops"`
			MaxBatch      uint64            `json:"max_batch"`
			MeanBatch     float64           `json:"mean_batch"`
			BatchSizeHist map[string]uint64 `json:"batch_size_hist"`
		} `json:"group_commit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /v1/store: %v", err)
	}
	data := e.Data()
	if out.Triples != data.Len() || out.Generation != data.Generation() {
		t.Errorf("stats disagree with the store: %+v vs len=%d gen=%d",
			out, data.Len(), data.Generation())
	}
	if out.Cardinalities.Subjects <= 0 || out.Cardinalities.Predicates <= 0 || out.Cardinalities.Objects <= 0 {
		t.Errorf("cardinalities not populated: %+v", out.Cardinalities)
	}
	if out.DictTerms <= 0 {
		t.Errorf("dict_terms = %d, want > 0", out.DictTerms)
	}
	if out.GroupCommit.Groups < 1 || out.GroupCommit.Ops < 2 || out.GroupCommit.MeanBatch <= 0 {
		t.Errorf("group_commit block not populated: %+v", out.GroupCommit)
	}
	var histSum uint64
	for _, c := range out.GroupCommit.BatchSizeHist {
		histSum += c
	}
	if histSum != out.GroupCommit.Groups {
		t.Errorf("batch_size_hist sums to %d, want %d groups", histSum, out.GroupCommit.Groups)
	}

	// Read-only guard: non-read methods are refused.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/store", nil)
	delResp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/store = %d, want 405", delResp.StatusCode)
	}
}
