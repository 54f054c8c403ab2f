package gsacs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/store"
)

// replica serves a 12-site scenario (seed 7) over HTTP and counts the
// /v1/query requests it answers. Two replicas hold the same dataset, as
// followers of one leader do.
type replica struct {
	*httptest.Server
	queries atomic.Int64
}

func newReplica(t *testing.T, h http.Handler) *replica {
	t.Helper()
	rp := &replica{}
	rp.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			rp.queries.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(rp.Close)
	return rp
}

// newRouter is a router over replicas: policies, an empty store, and the
// replicas as its sources.
func newRouter(t *testing.T, sc *datagen.Scenario, replicas ...*replica) *httptest.Server {
	t.Helper()
	var sources []federation.Source
	for i, rp := range replicas {
		sources = append(sources, federation.NewRemoteSource(string(rune('a'+i)), rp.URL, nil))
	}
	fed, err := federation.New(federation.Config{
		Retry: federation.RetryConfig{MaxAttempts: 1},
	}, sources...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(New(sc.Policies, store.New(), Options{}), nil, WithFederator(fed)))
	t.Cleanup(srv.Close)
	return srv
}

// get answers the status, Content-Type and body of GET base+path.
func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestRouterAnswersAreTheReplicaBytes: a router in front of one replica, and
// in front of two, answers each query shape of
// TestQueryBodiesAreTheBytesTheyWere, and a query whose rows repeat, with
// exactly the status, Content-Type and body the replica gives.
func TestRouterAnswersAreTheReplicaBytes(t *testing.T) {
	h1, sc := shapeServer(12)
	h2, _ := shapeServer(12)
	r1, r2 := newReplica(t, h1), newReplica(t, h2)
	queries := []string{`SELECT ?c WHERE { ?s a ?c }`}
	for _, sh := range queryShapes(sc) {
		queries = append(queries, sh.q)
	}
	for name, router := range map[string]*httptest.Server{
		"one replica":  newRouter(t, sc, r1),
		"two replicas": newRouter(t, sc, r1, r2),
	} {
		for _, role := range []string{"MainRep", "Hazmat", "EmergencyResponse"} {
			for _, q := range queries {
				path := "/v1/query?role=" + role + "&q=" + url.QueryEscape(q)
				// Twice, so that each of two replicas answers once.
				for range 2 {
					wantCode, wantType, want := get(t, r1.URL, path)
					code, ctype, body := get(t, router.URL, path)
					if code != wantCode || ctype != wantType || body != want {
						t.Fatalf("%s, %s: %s\nrouter: %d %s %s\nreplica: %d %s %s",
							name, role, q, code, ctype, body, wantCode, wantType, want)
					}
				}
			}
		}
	}
}

// TestRouterDividesTheLoad: N reads through a router over two healthy
// replicas, from several clients at once, cost N replica queries in all,
// and both replicas serve some.
func TestRouterDividesTheLoad(t *testing.T) {
	h1, sc := shapeServer(12)
	h2, _ := shapeServer(12)
	r1, r2 := newReplica(t, h1), newReplica(t, h2)
	router := newRouter(t, sc, r1, r2)
	const clients, reads = 4, 5
	const n = clients * reads
	path := "/v1/query?role=Hazmat&q=" + url.QueryEscape(queryShapes(sc)[1].q)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range reads {
				resp, err := http.Get(router.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	q1, q2 := r1.queries.Load(), r2.queries.Load()
	if q1+q2 != n || q1 == 0 || q2 == 0 {
		t.Errorf("%d reads cost %d + %d replica queries, want %d in all, split between both", n, q1, q2, n)
	}
}

// TestRouterForwardsReplicaRefusal: a replica's 4xx is its answer. The router
// sends its status and envelope back as they are, and does not retry it.
func TestRouterForwardsReplicaRefusal(t *testing.T) {
	const envelope = `{"error":"access denied","code":"forbidden","trace_id":"t"}` + "\n"
	refusing := newReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		io.WriteString(w, envelope)
	}))
	_, sc := scenarioEngine(t)
	router := newRouter(t, sc, refusing)
	code, ctype, body := get(t, router.URL, "/v1/query?role=Hazmat&q="+url.QueryEscape(`ASK { ?s ?p ?o }`))
	if code != http.StatusForbidden || ctype != "application/json" || body != envelope {
		t.Errorf("router answered %d %s %q, want the replica's 403 %q", code, ctype, body, envelope)
	}
	if n := refusing.queries.Load(); n != 1 {
		t.Errorf("the replica was asked %d times, want once", n)
	}
}

// TestRouterExplainsOnTheReplica: explain=1 and explain=analyze through a
// router are the replica's, not the router's empty store's.
func TestRouterExplainsOnTheReplica(t *testing.T) {
	h, sc := shapeServer(12)
	rp := newReplica(t, h)
	router := newRouter(t, sc, rp)
	q := url.QueryEscape(queryShapes(sc)[2].q)

	plan := "/v1/query?role=Hazmat&explain=1&q=" + q
	_, _, want := get(t, rp.URL, plan)
	if code, _, body := get(t, router.URL, plan); code != http.StatusOK || body != want {
		t.Errorf("explain=1 through the router: %d %s\nwant the replica's %s", code, body, want)
	}

	type analyzed struct {
		Solutions int               `json:"solutions"`
		Stages    []json.RawMessage `json:"stages"`
	}
	decode := func(body string) analyzed {
		var a analyzed
		if err := json.Unmarshal([]byte(body), &a); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		return a
	}
	analyze := "/v1/query?role=Hazmat&explain=analyze&q=" + q
	_, _, body := get(t, rp.URL, analyze)
	direct := decode(body)
	if direct.Solutions == 0 || len(direct.Stages) == 0 {
		t.Fatalf("the replica's analysis is empty, the test shows nothing: %s", body)
	}
	_, _, body = get(t, router.URL, analyze)
	if got := decode(body); got.Solutions != direct.Solutions || len(got.Stages) != len(direct.Stages) {
		t.Errorf("explain=analyze through the router: %d solutions, %d stages; the replica's: %d, %d",
			got.Solutions, len(got.Stages), direct.Solutions, len(direct.Stages))
	}
}

// TestRouterForwardsViewsAndResources: /v1/view and /v1/resource through a
// router over one replica are the replica's document bytes — status,
// Content-Type, ETag and body — and the client's If-None-Match reaches the
// replica, whose 304 comes back. The router's own store is empty: before
// these routes were forwarded it answered each with an empty 200.
func TestRouterForwardsViewsAndResources(t *testing.T) {
	h, sc := shapeServer(12)
	var asked atomic.Value // the last If-None-Match the replica was sent
	rp := newReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tag := r.Header.Get("If-None-Match"); tag != "" {
			asked.Store(tag)
		}
		h.ServeHTTP(w, r)
	}))
	router := newRouter(t, sc, rp)
	site := url.QueryEscape(string(sc.Chemical.Sites[0].IRI))
	for _, path := range []string{
		"/v1/view?role=MainRep", "/v1/view?role=Hazmat&format=ntriples",
		"/v1/resource?role=EmergencyResponse&iri=" + site, "/v1/resource?role=MainRep&iri=" + site,
	} {
		want, err := http.Get(rp.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wantBody, _ := io.ReadAll(want.Body)
		want.Body.Close()
		got, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(got.Body)
		got.Body.Close()
		if got.StatusCode != want.StatusCode || string(body) != string(wantBody) ||
			got.Header.Get("Content-Type") != want.Header.Get("Content-Type") || got.Header.Get("ETag") != want.Header.Get("ETag") {
			t.Fatalf("%s: router %d %q %q (%d bytes), replica %d %q %q (%d bytes)", path,
				got.StatusCode, got.Header.Get("Content-Type"), got.Header.Get("ETag"), len(body),
				want.StatusCode, want.Header.Get("Content-Type"), want.Header.Get("ETag"), len(wantBody))
		}
		if strings.HasPrefix(path, "/v1/view") && (len(body) == 0 || got.Header.Get("ETag") == "") {
			t.Fatalf("%s: an empty view or no ETag, the test shows nothing", path)
		}
		if etag := got.Header.Get("ETag"); etag != "" {
			req, _ := http.NewRequest(http.MethodGet, router.URL+path, nil)
			req.Header.Set("If-None-Match", etag)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			rest, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified || len(rest) != 0 || resp.Header.Get("ETag") != etag {
				t.Fatalf("%s with If-None-Match %s: %d, %d bytes, ETag %q; want the replica's 304", path, etag,
					resp.StatusCode, len(rest), resp.Header.Get("ETag"))
			}
			if got, _ := asked.Load().(string); got != etag {
				t.Fatalf("%s: the replica was sent If-None-Match %q, want %q", path, got, etag)
			}
		}
	}
}

// TestClusterCountsEachRoutedReadOnce: N reads of one shape through a router
// over two replicas show as N in the fleet's top queries. The router books
// each read it forwards under self, and the replica that answers books it
// too, so a fleet list that merged self counted each read twice.
func TestClusterCountsEachRoutedReadOnce(t *testing.T) {
	var replicas []*replica
	var peers []ClusterPeer
	for i := range 2 {
		e, _ := scenarioEngine(t)
		rp := newReplica(t, NewServer(e, nil, WithWorkload(workload.New(workload.Config{Capacity: 8}))))
		replicas = append(replicas, rp)
		peers = append(peers, ClusterPeer{Name: fmt.Sprint("peer", i), Base: rp.URL})
	}
	var sources []federation.Source
	for _, p := range peers {
		sources = append(sources, federation.NewRemoteSource(p.Name, p.Base, nil))
	}
	fed, err := federation.New(federation.Config{Retry: federation.RetryConfig{MaxAttempts: 1}}, sources...)
	if err != nil {
		t.Fatal(err)
	}
	_, sc := scenarioEngine(t)
	self := workload.New(workload.Config{Capacity: 8})
	router := httptest.NewServer(NewServer(New(sc.Policies, store.New(), Options{}), nil,
		WithFederator(fed), WithWorkload(self), WithCluster(ClusterConfig{Peers: peers})))
	defer router.Close()

	const n = 7
	path := "/v1/query?role=Hazmat&q=" + url.QueryEscape(`SELECT ?s WHERE { ?s a app:ChemSite }`)
	for range n {
		if code, _, body := get(t, router.URL, path); code != http.StatusOK {
			t.Fatalf("routed read: %d %s", code, body)
		}
	}
	if q0, q1 := replicas[0].queries.Load(), replicas[1].queries.Load(); q0+q1 != n || q0 == 0 || q1 == 0 {
		t.Fatalf("the replicas answered %d + %d of %d reads", q0, q1, n)
	}
	_, _, body := get(t, router.URL, "/v1/cluster")
	var rollup struct {
		Self struct {
			TopQueries []workload.Snapshot `json:"top_queries"`
		} `json:"self"`
		Fleet struct {
			TopQueries []workload.Snapshot `json:"top_queries"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(body), &rollup); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if top := rollup.Fleet.TopQueries; len(top) != 1 || top[0].Count != n {
		t.Fatalf("fleet top queries %+v, want one shape counted %d times", top, n)
	}
	if top := rollup.Self.TopQueries; len(top) != 1 || top[0].Count != n {
		t.Fatalf("self top queries %+v, want the router's own %d", top, n)
	}
}

// TestRouterAuditsTheRole: a router's audit entry for each read it forwards
// names the role asked for, as a replica's does, though the router never
// decides anything itself.
func TestRouterAuditsTheRole(t *testing.T) {
	h, sc := shapeServer(12)
	rp := newReplica(t, h)
	fed, err := federation.New(federation.Config{Retry: federation.RetryConfig{MaxAttempts: 1}},
		federation.NewRemoteSource("a", rp.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	e := New(sc.Policies, store.New(), Options{})
	e.EnableAudit(8)
	router := NewServer(e, nil, WithFederator(fed))
	site := url.QueryEscape(string(sc.Chemical.Sites[0].IRI))
	reads := []struct {
		path, route string
		role        rdf.IRI
	}{
		{"/v1/query?role=Hazmat&q=" + url.QueryEscape(`SELECT ?s WHERE { ?s a app:ChemSite }`), "/v1/query", datagen.RoleHazmat},
		{"/v1/view?role=MainRep", "/v1/view", datagen.RoleMainRepair},
		{"/v1/resource?role=EmergencyResponse&iri=" + site, "/v1/resource", datagen.RoleEmergency},
	}
	for _, rd := range reads {
		if w := serveReq(t, router, http.MethodGet, rd.path, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", rd.path, w.Code, w.Body)
		}
	}
	trail := e.AuditTrail()
	if len(trail) != len(reads) {
		t.Fatalf("trail %+v, want one entry per forwarded read", trail)
	}
	for i, rd := range reads {
		if got := trail[i]; got.Route != rd.route || got.Subject != rd.role {
			t.Errorf("entry %d: route %q subject %q, want %q %q", i, got.Route, got.Subject, rd.route, rd.role)
		}
	}
}
