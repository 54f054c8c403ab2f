package gsacs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wal"
)

// routeSpec is what a review of the HTTP surface expects of one route,
// written out independently of routeTable: changing a gate means changing it
// here too, and every expectation is checked against a live server, not
// against the row's fields.
type routeSpec struct {
	pattern string
	// probe is a request URI that answers 200 on the full fixture ("{site}"
	// and "{trace}" are filled in); method defaults to GET.
	probe, method, body string
	// gated names the admission pool; "" is ungated.
	gated                            string
	alwaysReady, sloSkip, leaderOnly bool
}

var routeSpecs = []routeSpec{
	{pattern: "/v1/roles", probe: "/v1/roles"},
	{pattern: "/v1/ontologies", probe: "/v1/ontologies"},
	{pattern: "/v1/view", probe: "/v1/view?role=MainRep", gated: "view"},
	{pattern: "/v1/resource", probe: "/v1/resource?role=MainRep&iri={site}", gated: "query"},
	{pattern: "/v1/query", probe: "/v1/query?role=Hazmat&q=" + url.QueryEscape(`SELECT ?s WHERE { ?s a app:ChemSite }`), gated: "query"},
	{pattern: "/v1/mutate", probe: "/v1/mutate?role=Admin", method: http.MethodPost, body: "[]", gated: "mutate", leaderOnly: true},
	{pattern: "/v1/audit", probe: "/v1/audit?limit=1"},
	{pattern: "/v1/store", probe: "/v1/store"},
	{pattern: "/healthz", probe: "/healthz", alwaysReady: true},
	{pattern: "/metrics", probe: "/metrics", alwaysReady: true},
	{pattern: "/debug/pprof/", probe: "/debug/pprof/cmdline", alwaysReady: true},
	{pattern: "/v1/traces", probe: "/v1/traces?limit=1"},
	{pattern: "/v1/traces/{id}", probe: "/v1/traces/{trace}"},
	{pattern: "/v1/slo", probe: "/v1/slo"},
	{pattern: "/v1/queries", probe: "/v1/queries"},
	{pattern: "/v1/profiles", probe: "/v1/profiles", alwaysReady: true},
	{pattern: "/v1/cluster", probe: "/v1/cluster"},
	{pattern: "/v1/wal/stream", probe: "/v1/wal/stream?from=1&poll_ms=1", sloSkip: true},
	{pattern: "/v1/wal/snapshot", probe: "/v1/wal/snapshot", sloSkip: true},
}

// deletedPaths are the legacy aliases and single-op write endpoints this
// server no longer mounts.
var deletedPaths = []string{
	"/roles", "/view", "/resource", "/query", "/ontologies", "/audit",
	"/insert", "/delete", "/update", "/v1/insert", "/v1/delete", "/v1/update",
}

// routeFixture is a server with every route-adding option on.
type routeFixture struct {
	srv  *httptest.Server
	reg  *obs.Registry
	slo  *obs.SLOEngine
	ctrl *admission.Controller
	site string
	// trace is the ID of a retained trace.
	trace string
}

func newRouteFixture(t *testing.T, extra ...ServerOption) *routeFixture {
	t.Helper()
	e, sc, _, _ := writeScenario(t)
	f := &routeFixture{
		reg:   obs.NewRegistry(),
		site:  url.QueryEscape(string(sc.Chemical.Sites[0].IRI)),
		trace: "feedfacefeedface",
	}
	f.slo = obs.NewSLOEngine(obs.SLOConfig{LatencyTarget: 5 * time.Second, AvailabilityTarget: 0.5})
	f.ctrl = admission.NewController(admission.Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		MaxQueue: admission.NoQueue, AdjustEvery: time.Hour,
	})
	// Retention is striped: the primed trace shares its stripe's slots with
	// whatever random IDs hash there, so give each stripe more slots than a
	// subtest makes requests.
	tracer := obs.NewTracer(1024)
	walStore := store.New()
	repo, err := wal.Open(walStore, wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// One journalled record, so a stream from seq 1 has something to ship.
	walStore.Add(rdf.T(rdf.IRI("http://x/s"), rdf.IRI("http://x/p"), rdf.NewString("o")))
	leader := repl.NewLeader(walStore, repo, repl.LeaderOptions{})
	t.Cleanup(func() { leader.Close(); repo.Close() })

	opts := append([]ServerOption{
		WithMetrics(f.reg), WithPprof(), WithTracer(tracer), WithSLO(f.slo),
		WithWorkload(workload.New(workload.Config{Capacity: 8})),
		WithProfiler(prof.New(prof.Config{Ring: 1, CPUWindow: 10 * time.Millisecond})),
		WithCluster(ClusterConfig{}),
		WithReplLeader(func() *repl.Leader { return leader }),
		WithAdmission(AdmissionConfig{Controller: f.ctrl}),
	}, extra...)
	f.srv = httptest.NewServer(NewServer(e, nil, opts...))
	t.Cleanup(f.srv.Close)

	// Retain one trace under a known ID so /v1/traces/{id} has a 200 to give.
	// /metrics is the probe because no gate ever refuses it.
	req, _ := http.NewRequest(http.MethodGet, f.srv.URL+"/metrics", nil)
	req.Header.Set(obs.TraceHeader, f.trace)
	resp, err := f.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; ; i++ {
		if _, ok := tracer.Trace(f.trace); ok {
			break
		}
		if i == 200 {
			t.Fatal("priming trace never retained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f
}

// do sends the spec's probe and returns the response with its body.
func (f *routeFixture) do(t *testing.T, sp routeSpec) (*http.Response, string) {
	t.Helper()
	uri := strings.NewReplacer("{site}", f.site, "{trace}", f.trace).Replace(sp.probe)
	method := sp.method
	if method == "" {
		method = http.MethodGet
	}
	req, err := http.NewRequest(method, f.srv.URL+uri, strings.NewReader(sp.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func (f *routeFixture) requests(route string, code string) float64 {
	return f.reg.Counter("grdf_http_requests_total", "", "route", route, "code", code).Value()
}

// moved reports how far route's 200 counter has moved past before, waiting
// up to a second for it to move at all: the middleware books a request when
// the handler returns, which can be after the client has read a body whose
// length it was sent up front.
func (f *routeFixture) moved(route string, before float64) float64 {
	deadline := time.Now().Add(time.Second)
	for f.requests(route, "200") == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return f.requests(route, "200") - before
}

// TestRouteTable ranges over the route table itself: the rows and the specs
// above name the same patterns, and every row, on a live server, answers on
// its pattern, labels its metric with it, and sits behind exactly the gates
// the spec lists.
func TestRouteTable(t *testing.T) {
	specs := map[string]routeSpec{}
	for _, sp := range routeSpecs {
		specs[sp.pattern] = sp
	}
	if len(routeTable) != len(specs) {
		t.Fatalf("routeTable has %d rows, routeSpecs %d", len(routeTable), len(specs))
	}
	rows := make([]routeSpec, len(routeTable))
	for i, rt := range routeTable {
		sp, ok := specs[rt.pattern]
		if !ok {
			t.Fatalf("row %q has no routeSpec: say what gates it should sit behind", rt.pattern)
		}
		rows[i] = sp
	}

	t.Run("answers under its own label", func(t *testing.T) {
		f := newRouteFixture(t)
		for _, sp := range rows {
			before := f.requests(sp.pattern, "200")
			resp, body := f.do(t, sp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: %s = %d %s", sp.pattern, sp.probe, resp.StatusCode, body)
			}
			if got := f.moved(sp.pattern, before); got != 1 {
				t.Errorf("%s: grdf_http_requests_total{route=%q,code=200} moved by %v, want 1", sp.pattern, sp.pattern, got)
			}
		}
		inSLO := map[string]bool{}
		for _, rs := range f.slo.Status().Routes {
			inSLO[rs.Route] = true
		}
		for _, sp := range rows {
			if inSLO[sp.pattern] == sp.sloSkip {
				t.Errorf("%s: in SLO windows = %v, want sloSkip = %v", sp.pattern, inSLO[sp.pattern], sp.sloSkip)
			}
		}
	})

	t.Run("optional rows need their option", func(t *testing.T) {
		e, _, _, _ := writeScenario(t)
		f := &routeFixture{srv: httptest.NewServer(NewServer(e, nil))}
		defer f.srv.Close()
		for i, sp := range rows {
			resp, body := f.do(t, sp)
			if optional := routeTable[i].on != nil; optional != (resp.StatusCode == http.StatusNotFound) {
				t.Errorf("%s on a server without options = %d %s (optional row: %v)", sp.pattern, resp.StatusCode, body, optional)
			}
		}
	})

	t.Run("admission", func(t *testing.T) {
		f := newRouteFixture(t)
		for _, class := range []admission.Class{admission.ClassQuery, admission.ClassView, admission.ClassMutate} {
			release, err := f.ctrl.Admit(context.Background(), class, admission.Normal)
			if err != nil {
				t.Fatalf("priming admit %s: %v", class, err)
			}
			defer release()
		}
		shedBefore := f.ctrl.Status()
		for _, sp := range rows {
			resp, body := f.do(t, sp)
			want := http.StatusOK
			if sp.gated != "" {
				want = http.StatusTooManyRequests
			}
			if resp.StatusCode != want {
				t.Errorf("%s under full pools = %d %s, want %d", sp.pattern, resp.StatusCode, body, want)
			}
			if sp.gated == "" {
				continue
			}
			// The shed must come out of the pool the spec names.
			after := f.ctrl.Status()
			for _, cs := range after.Classes {
				moved := cs.Shed - classShed(shedBefore, cs.Class)
				if (moved > 0) != (cs.Class == sp.gated) {
					t.Errorf("%s: pool %s shed moved by %d, want the shed in pool %s", sp.pattern, cs.Class, moved, sp.gated)
				}
			}
			shedBefore = after
		}
	})

	t.Run("readiness", func(t *testing.T) {
		ready := true
		f := newRouteFixture(t, WithReadiness(func() bool { return ready }))
		ready = false
		for _, sp := range rows {
			resp, body := f.do(t, sp)
			refused := resp.StatusCode == http.StatusServiceUnavailable &&
				strings.Contains(body, "durable state is being recovered")
			if refused == sp.alwaysReady {
				t.Errorf("%s while recovering = %d %s, want refused by the gate = %v", sp.pattern, resp.StatusCode, body, !sp.alwaysReady)
			}
		}
	})

	t.Run("read replica", func(t *testing.T) {
		f := newRouteFixture(t, WithMutationRedirect("http://leader:8080/"))
		for _, sp := range rows {
			resp, body := f.do(t, sp)
			if !sp.leaderOnly {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s on a replica = %d %s, want 200", sp.pattern, resp.StatusCode, body)
				}
				continue
			}
			if resp.StatusCode != http.StatusMisdirectedRequest || !strings.Contains(body, `"not_leader"`) {
				t.Errorf("%s on a replica = %d %s, want 421 not_leader", sp.pattern, resp.StatusCode, body)
			}
			if loc, want := resp.Header.Get("Location"), "http://leader:8080"+sp.probe; loc != want {
				t.Errorf("%s: Location %q, want %q", sp.pattern, loc, want)
			}
		}
	})

	t.Run("deleted paths", func(t *testing.T) {
		f := newRouteFixture(t)
		for i, path := range deletedPaths {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				resp, body := f.do(t, routeSpec{probe: path + "?role=Admin", method: method})
				if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, `"not_found"`) {
					t.Errorf("%s %s = %d %s, want the 404 envelope", method, path, resp.StatusCode, body)
				}
			}
			if got := f.requests("other", "404"); got != float64(2*(i+1)) {
				t.Errorf("after %s: route label other counted %v 404s, want %d", path, got, 2*(i+1))
			}
			if got := f.requests(path, "404"); got != 0 {
				t.Errorf("%s leaked into the route label", path)
			}
		}
	})
}

func classShed(st admission.Status, class string) uint64 {
	for _, cs := range st.Classes {
		if cs.Class == class {
			return cs.Shed
		}
	}
	return 0
}
