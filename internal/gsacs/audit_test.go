package gsacs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/wal"
)

// serveReq runs one request through h in-process. The middleware has booked it
// by the time serve returns, whatever the size of the body.
func serveReq(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// resourcePath is the /v1/resource request of role for resource.
func resourcePath(role rdf.IRI, resource rdf.Term) string {
	return "/v1/resource?role=" + url.QueryEscape(string(role)) + "&iri=" + url.QueryEscape(string(resource.(rdf.IRI)))
}

// TestAuditTrail: the trail is one entry per request on a route that takes
// a role — not one per decision — and says who asked what, on which route
// under which trace, how it ended, under which rules and at which generation.
// The ring keeps the newest.
func TestAuditTrail(t *testing.T) {
	e, sc := scenarioEngine(t)
	srv := NewServer(e, nil)
	site := sc.Chemical.Sites[0].IRI
	serveReq(t, srv, http.MethodGet, resourcePath(datagen.RoleMainRepair, site), "")
	if e.AuditTrail() != nil {
		t.Error("audit enabled by default")
	}
	e.EnableAudit(3)
	allowed := serveReq(t, srv, http.MethodGet, resourcePath(datagen.RoleMainRepair, site), "")
	denied := serveReq(t, srv, http.MethodGet, resourcePath(rdf.IRI(seconto.NS+"Nobody"), site), "")
	serveReq(t, srv, http.MethodGet, "/v1/audit", "") // not a role's request: no entry
	trail := e.AuditTrail()
	if len(trail) != 2 {
		t.Fatalf("trail = %d entries, want one per /v1/resource request: %+v", len(trail), trail)
	}
	want := AuditEntry{Seq: 1, TraceID: allowed.Header().Get(obs.TraceHeader), Route: "/v1/resource",
		Subject: datagen.RoleMainRepair, Action: seconto.ActionView, Resource: site.String(),
		Outcome: "ok", Allowed: true, Generation: e.Data().Generation()}
	got := trail[0]
	if len(got.Policies) == 0 || got.TraceID == "" {
		t.Errorf("entry 0 has no rules or no trace: %+v", got)
	}
	if got.Policies = nil; !reflect.DeepEqual(got, want) {
		t.Errorf("entry 0 = %+v, want %+v", got, want)
	}
	if got := trail[1]; got.Allowed || got.Outcome != "error" || got.TraceID != denied.Header().Get(obs.TraceHeader) {
		t.Errorf("entry 1 = %+v, want the denial", got)
	}
	// Ring wraps: capacity 3, three views more.
	for i := 0; i < 3; i++ {
		serveReq(t, srv, http.MethodGet, "/v1/view?role=Hazmat", "")
	}
	trail = e.AuditTrail()
	if len(trail) != 3 {
		t.Fatalf("wrapped trail = %d", len(trail))
	}
	if trail[0].Seq >= trail[1].Seq || trail[2].Subject != datagen.RoleHazmat || trail[2].Route != "/v1/view" ||
		trail[2].Resource != "" || !trail[2].Allowed || len(trail[2].Policies) == 0 {
		t.Errorf("ring order or view entry wrong: %+v", trail)
	}
}

// TestServerAuditEndpoint: /v1/audit serves the entries under their JSON
// names.
func TestServerAuditEndpoint(t *testing.T) {
	e, sc := scenarioEngine(t)
	e.EnableAudit(16)
	srv := NewServer(e, nil)
	serveReq(t, srv, http.MethodGet, resourcePath(datagen.RoleMainRepair, sc.Chemical.Sites[0].IRI), "")
	w := serveReq(t, srv, http.MethodGet, "/v1/audit", "")
	var parsed struct {
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Entries) != 1 {
		t.Fatalf("%d audit entries over HTTP, want 1: %s", len(parsed.Entries), w.Body)
	}
	got := parsed.Entries[0]
	for _, field := range []string{"seq", "trace_id", "route", "subject", "action", "resource",
		"outcome", "allowed", "full", "policies", "generation"} {
		if _, ok := got[field]; !ok {
			t.Errorf("entry has no %q: %v", field, got)
		}
	}
	if !strings.Contains(got["subject"].(string), "MainRep") || got["route"] != "/v1/resource" {
		t.Errorf("entry = %v", got)
	}
}

// TestServerAuditPagination drives limit/offset over a known trail.
func TestServerAuditPagination(t *testing.T) {
	srv, e, sc := v1TestServer(t)
	e.EnableAudit(64)
	for i := 0; i < 5; i++ {
		if resp, body := doReq(t, srv, http.MethodGet, resourcePath(datagen.RoleHazmat, sc.Chemical.Sites[0].IRI)); resp.StatusCode != http.StatusOK {
			t.Fatalf("resource = %d %s", resp.StatusCode, body)
		}
	}

	type auditResp struct {
		Entries []map[string]any `json:"entries"`
		Total   int              `json:"total"`
		Offset  int              `json:"offset"`
	}
	fetch := func(q string) auditResp {
		t.Helper()
		resp, body := doReq(t, srv, http.MethodGet, "/v1/audit"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("audit%s = %d %s", q, resp.StatusCode, body)
		}
		var out auditResp
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("audit%s body: %v", q, err)
		}
		return out
	}

	all := fetch("")
	if all.Total != 5 || len(all.Entries) != 5 || all.Offset != 0 {
		t.Fatalf("unpaginated audit = total %d, %d entries, offset %d",
			all.Total, len(all.Entries), all.Offset)
	}
	page := fetch("?limit=2&offset=1")
	if page.Total != 5 || len(page.Entries) != 2 || page.Offset != 1 {
		t.Fatalf("page = total %d, %d entries, offset %d", page.Total, len(page.Entries), page.Offset)
	}
	if page.Entries[0]["seq"] != all.Entries[1]["seq"] {
		t.Errorf("offset=1 page starts at seq %v, want %v", page.Entries[0]["seq"], all.Entries[1]["seq"])
	}
	if tail := fetch("?offset=99"); tail.Total != 5 || tail.Entries == nil || len(tail.Entries) != 0 {
		t.Errorf("past-the-end page = total %d, entries %v", tail.Total, tail.Entries)
	}
	if resp, body := doReq(t, srv, http.MethodGet, "/v1/audit?limit=-3"); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(body, `"bad_request"`) {
		t.Errorf("negative limit = %d %s", resp.StatusCode, body)
	}
}

func TestAuditRingWraparoundConcurrent(t *testing.T) {
	e, reg := metricsEngine(t)
	const capacity = 8
	e.EnableAudit(capacity)
	srv := NewServer(e, nil)
	path := resourcePath(datagen.RoleHazmat, e.Data().SubjectsOfType(datagen.ChemSite)[0])

	// Hammer requests from many goroutines: the ring must stay consistent
	// and account for every overwritten entry. Run under -race in CI.
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				serveReq(t, srv, http.MethodGet, path, "")
			}
		}()
	}
	wg.Wait()

	st := e.AuditStats()
	total := uint64(workers * perWorker)
	if st.Recorded != total {
		t.Errorf("Recorded = %d, want %d", st.Recorded, total)
	}
	if st.Depth != capacity || st.Capacity != capacity {
		t.Errorf("Depth/Capacity = %d/%d, want %d/%d", st.Depth, st.Capacity, capacity, capacity)
	}
	if want := total - capacity; st.Overwritten != want {
		t.Errorf("Overwritten = %d, want %d", st.Overwritten, want)
	}

	// The snapshot holds exactly the last `capacity` sequence numbers,
	// oldest first.
	trail := e.AuditTrail()
	if len(trail) != capacity {
		t.Fatalf("trail len = %d", len(trail))
	}
	for i, entry := range trail {
		if want := total - uint64(capacity) + uint64(i) + 1; entry.Seq != want {
			t.Errorf("trail[%d].Seq = %d, want %d", i, entry.Seq, want)
		}
	}

	// The exported counter agrees with the ring's own accounting.
	if got := reg.Counter("grdf_audit_overwritten_total", "").Value(); uint64(got) != st.Overwritten {
		t.Errorf("metric overwritten = %v, stats %d", got, st.Overwritten)
	}
}

func TestAuditStatsBeforeWraparound(t *testing.T) {
	e, _ := metricsEngine(t)
	e.EnableAudit(16)
	srv := NewServer(e, nil)
	for i := 0; i < 5; i++ {
		serveReq(t, srv, http.MethodGet, "/v1/view?role=Hazmat", "")
	}
	st := e.AuditStats()
	if st.Depth != 5 || st.Overwritten != 0 || st.Recorded != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Disabled auditing reports zeros.
	e2, _ := metricsEngine(t)
	if st := e2.AuditStats(); st != (AuditStats{}) {
		t.Errorf("disabled stats = %+v", st)
	}
}

// durableEngine is a scenario engine over a store seeded through a
// write-ahead log in a fresh directory, its audit trail journaled to the
// log's audit file as cmd/gsacs-server does, with an Admin role that may
// modify chemical sites.
func durableEngine(t *testing.T, fsys wal.FS) (*Engine, *wal.Repository, *obs.Registry, string) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 6})
	sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
		ID: seconto.NS + "AdminModify", Subject: rdf.IRI(seconto.NS + "Admin"),
		Action: seconto.ActionModify, Resource: datagen.ChemSite, Permit: true,
	})
	dir := t.TempDir()
	st := store.New()
	repo, err := wal.Open(st, wal.Options{Dir: dir, FS: fsys, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	st.AddAll(sc.Merged.Triples())
	reg := obs.NewRegistry()
	e := New(sc.Policies, st, Options{Metrics: reg})
	e.EnableAudit(256)
	e.SetAuditPersist(repo.AppendAudit)
	return e, repo, reg, dir
}

// segmentBytes is every segment of the log in dir, in order.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// renameOp is a /v1/mutate body renaming site.
func renameOp(e *Engine, site rdf.Term, name string) string {
	old, _ := e.Data().FirstObject(site, datagen.HasSiteName)
	return "[" + updateOp(rdf.T(site, datagen.HasSiteName, old), rdf.T(site, datagen.HasSiteName, rdf.NewString(name))) + "]"
}

// TestViewsLeaveTheCommitLogAlone: on a durable leader, view fills, view
// patches and resource reads write their audit entries to the audit file and
// nothing to the commit log — no segment byte, no replication head (which is
// also what -snapshot-every counts). A view served from the cache is one
// entry, no decision, carrying the rules and generation of the cache entry.
func TestViewsLeaveTheCommitLogAlone(t *testing.T) {
	e, repo, reg, dir := durableEngine(t, nil)
	srv := NewServer(e, nil)
	site := e.Data().SubjectsOfType(datagen.ChemSite)[0]
	reads := func(step string) {
		t.Helper()
		head, segments := repo.HeadSeq(), segmentBytes(t, dir)
		for _, role := range scenarioRoles {
			if w := serveReq(t, srv, http.MethodGet, "/v1/view?role="+url.QueryEscape(string(role)), ""); w.Code != http.StatusOK {
				t.Fatalf("%s: view = %d", step, w.Code)
			}
		}
		for i := 0; i < 20; i++ {
			serveReq(t, srv, http.MethodGet, resourcePath(datagen.RoleHazmat, site), "")
		}
		if repo.HeadSeq() != head || !bytes.Equal(segmentBytes(t, dir), segments) {
			t.Fatalf("%s moved the commit log: head %d -> %d", step, head, repo.HeadSeq())
		}
	}
	reads("cold view fills")
	if w := serveReq(t, srv, http.MethodPost, "/v1/mutate?role=Admin", renameOp(e, site, "renamed")); w.Code != http.StatusOK {
		t.Fatalf("mutate = %d %s", w.Code, w.Body)
	}
	reads("view patches")
	if st := e.Cache().Snapshot(); st.Patches != uint64(len(scenarioRoles)) {
		t.Errorf("the write was not patched into every view: %+v", st)
	}
	if got, want := len(repo.AuditReplay()), int(e.AuditStats().Recorded); got != want {
		t.Errorf("audit file holds %d entries, the trail recorded %d", got, want)
	}

	// A hit.
	ent := e.viewEntry(context.Background(), datagen.RoleHazmat, seconto.ActionView)
	decisions := func() float64 {
		return reg.Counter("grdf_decisions_total", "", "outcome", "allowed").Value() +
			reg.Counter("grdf_decisions_total", "", "outcome", "denied").Value()
	}
	decided, recorded := decisions(), e.AuditStats().Recorded
	w := serveReq(t, srv, http.MethodGet, "/v1/view?role=Hazmat", "")
	if n := e.AuditStats().Recorded - recorded; n != 1 || decisions() != decided {
		t.Fatalf("a view hit booked %d entries and made %v decisions, want 1 and 0", n, decisions()-decided)
	}
	trail := e.AuditTrail()
	got := trail[len(trail)-1]
	want := AuditEntry{Seq: got.Seq, TraceID: w.Header().Get(obs.TraceHeader), Route: "/v1/view",
		Subject: datagen.RoleHazmat, Action: seconto.ActionView, Outcome: "ok", Allowed: true,
		Policies: ent.rules, Generation: ent.base.Generation()}
	if len(ent.rules) == 0 || ent.base.Generation() != e.Data().Generation() || !reflect.DeepEqual(got, want) {
		t.Errorf("view hit booked %+v, want %+v at generation %d", got, want, e.Data().Generation())
	}
}

// TestAuditWriteFailureFailsNothing: a failed write of the audit file fails
// neither the request nor the commit it carried, and does not break the
// log; the failure is counted, and the next entry is written.
func TestAuditWriteFailureFailsNothing(t *testing.T) {
	// Opening the log writes nothing and seeding the dataset is one commit:
	// write 1. The mutate's commit is write 2, its audit entry write 3.
	fsys := wal.NewFaultFS(nil, wal.FaultConfig{FailWriteAt: 3})
	e, repo, reg, _ := durableEngine(t, fsys)
	if writes, _ := fsys.Counts(); writes != 1 {
		t.Fatalf("setup made %d writes, want 1", writes)
	}
	srv := NewServer(e, nil)
	site := e.Data().SubjectsOfType(datagen.ChemSite)[0]
	head := repo.HeadSeq()
	if w := serveReq(t, srv, http.MethodPost, "/v1/mutate?role=Admin", renameOp(e, site, "first")); w.Code != http.StatusOK {
		t.Fatalf("mutate with a failing audit write = %d %s", w.Code, w.Body)
	}
	if writes, _ := fsys.Counts(); writes != 3 {
		t.Fatalf("the mutate made %d writes, want the commit's and the audit entry's", writes-1)
	}
	if repo.HeadSeq() != head+1 || repo.WALStatus().Broken {
		t.Errorf("commit log head %d -> %d, broken %v; want one commit and a sound log",
			head, repo.HeadSeq(), repo.WALStatus().Broken)
	}
	if got := reg.Counter("grdf_audit_persist_errors_total", "").Value(); got != 1 {
		t.Errorf("grdf_audit_persist_errors_total = %v, want 1", got)
	}
	w := serveReq(t, srv, http.MethodPost, "/v1/mutate?role=Admin", renameOp(e, site, "second"))
	if w.Code != http.StatusOK {
		t.Fatalf("next mutate = %d %s", w.Code, w.Body)
	}
	payloads := repo.AuditReplay()
	var entry AuditEntry
	if len(payloads) != 1 || json.Unmarshal(payloads[0], &entry) != nil || entry.TraceID != w.Header().Get(obs.TraceHeader) ||
		entry.Action != seconto.ActionModify || !entry.Allowed || entry.Resource != site.String() {
		t.Errorf("audit file holds %d entries (%+v), want the second mutate's", len(payloads), entry)
	}
}
