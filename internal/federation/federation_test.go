// Chaos and equivalence tests for the federation layer, driven through real
// G-SACS engines over the Section 7.1 scenario. The scenario is naturally
// federated — a hydrology store and a chemical-site store — which is exactly
// the split the paper's emergency workload has to aggregate.
package federation_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// chemQuery aggregates chemical sites — partition-local to the chemical
// store, so federated evaluation over the (hydrology, chemical) split must
// agree with the merged store.
const chemQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`

const streamQuery = `SELECT ?s WHERE { ?s a app:HydroStream . }`

// buildEngine wires a decision engine the same way cmd/gsacs-server does.
func buildEngine(t *testing.T, data *store.Store, policies *seconto.Set) *gsacs.Engine {
	t.Helper()
	r := owl.NewReasoner()
	r.AddGraph(grdf.Ontology())
	r.AddGraph(seconto.Ontology())
	r.AddAll(data.Triples())
	return gsacs.New(policies, data, gsacs.Options{Reasoner: r})
}

// rowKeysOver canonicalizes a result for comparison, projecting every row
// onto vars: one sorted key per distinct projected row. Projection matters
// under fault injection, where garbage sources widen the variable union.
func rowKeysOver(res *federation.Result, vars []string) []string {
	vars = append([]string(nil), vars...)
	sort.Strings(vars)
	seen := map[string]bool{}
	var keys []string
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('=')
			sb.WriteString(row[v])
			sb.WriteByte(';')
		}
		if k := sb.String(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// rowKeys canonicalizes a result over its own variables.
func rowKeys(res *federation.Result) []string { return rowKeysOver(res, res.Vars) }

func queryKeys(t *testing.T, src federation.Source, role rdf.IRI, q string) []string {
	t.Helper()
	res, err := src.Query(context.Background(), role, seconto.ActionView, q)
	if err != nil {
		t.Fatalf("query %s: %v", src.Name(), err)
	}
	return rowKeys(res)
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFederatedMergeEquivalence: federating the hydrology and chemical
// stores must answer partition-local queries exactly like the single merged
// store, for SELECT and ASK alike.
func TestFederatedMergeEquivalence(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 11, Sites: 6})
	hydro := buildEngine(t, sc.Hydrology.Store, sc.Policies)
	chem := buildEngine(t, sc.Chemical.Store, sc.Policies)
	merged := buildEngine(t, sc.Merged, sc.Policies)

	fed, err := federation.New(federation.Config{},
		federation.NewLocalSource("hydro", hydro),
		federation.NewLocalSource("chem", chem))
	if err != nil {
		t.Fatal(err)
	}
	mergedSrc := federation.NewLocalSource("merged", merged)

	for _, role := range []rdf.IRI{datagen.RoleEmergency, datagen.RoleHazmat} {
		for _, q := range []string{chemQuery, streamQuery} {
			resp := fed.Query(context.Background(), role, seconto.ActionView, q)
			if resp.Err != nil {
				t.Fatalf("federated query: %v", resp.Err)
			}
			if resp.Degraded {
				t.Errorf("healthy federation degraded: %+v", resp.Sources)
			}
			got := rowKeys(resp.Result)
			want := queryKeys(t, mergedSrc, role, q)
			if !equalKeys(got, want) {
				t.Errorf("role %s: federated %d rows != merged %d rows",
					role.LocalName(), len(got), len(want))
			}
			if len(want) == 0 {
				t.Errorf("role %s query %q: empty baseline, test is vacuous", role.LocalName(), q)
			}
		}
		// ASK must OR across sources.
		resp := fed.Query(context.Background(), role, seconto.ActionView,
			`ASK { ?s a app:ChemSite }`)
		if resp.Err != nil || resp.Result.Kind != federation.KindAsk || !resp.Result.Boolean {
			t.Errorf("federated ASK = %+v (err %v), want true", resp.Result, resp.Err)
		}
	}
}

// TestFederatedDegradationChaos is the headline chaos scenario: one of two
// sources forced to 100% errors. Every request must still be answered with
// the healthy source's full solution set and degraded=true, and the breaker
// must open within its configured threshold of requests.
func TestFederatedDegradationChaos(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 11, Sites: 6})
	healthy := buildEngine(t, sc.Chemical.Store, sc.Policies)
	downEng := buildEngine(t, sc.Hydrology.Store, sc.Policies)
	down := federation.NewFaultySource(
		federation.NewLocalSource("down", downEng),
		federation.FaultConfig{Seed: 1, ErrorRate: 1.0})

	const threshold = 3
	fed, err := federation.New(federation.Config{
		SourceTimeout: time.Second,
		Retry:         federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:       federation.BreakerConfig{Threshold: threshold, Cooldown: time.Minute},
	},
		federation.NewLocalSource("healthy", healthy), down)
	if err != nil {
		t.Fatal(err)
	}

	want := queryKeys(t, federation.NewLocalSource("baseline", healthy),
		datagen.RoleEmergency, chemQuery)
	for i := 0; i < threshold+2; i++ {
		resp := fed.Query(context.Background(), datagen.RoleEmergency, seconto.ActionView, chemQuery)
		if resp.Err != nil {
			t.Fatalf("request %d: federated query failed outright: %v", i, resp.Err)
		}
		if !resp.Degraded {
			t.Fatalf("request %d: not marked degraded with a 100%%-error source", i)
		}
		if got := rowKeys(resp.Result); !equalKeys(got, want) {
			t.Fatalf("request %d: degraded answer lost healthy solutions (%d != %d rows)",
				i, len(got), len(want))
		}
		var downStatus *federation.SourceStatus
		for j := range resp.Sources {
			if resp.Sources[j].Source == "down" {
				downStatus = &resp.Sources[j]
			}
		}
		if downStatus == nil {
			t.Fatalf("request %d: no status block for the down source", i)
		}
		if i >= threshold && downStatus.State != federation.StateOpen {
			t.Errorf("request %d: down source state = %s, want open after %d failures",
				i, downStatus.State, threshold)
		}
	}
	if st, ok := fed.BreakerState("down"); !ok || st != federation.Open {
		t.Errorf("breaker state = %v (known=%v), want open", st, ok)
	}
	if st, ok := fed.BreakerState("healthy"); !ok || st != federation.Closed {
		t.Errorf("healthy breaker state = %v (known=%v), want closed", st, ok)
	}
}

// TestFederationChaosInvariants drives a 3-source federation with two
// misbehaving members (errors, hangs, garbage) and asserts the availability
// and correctness invariants: no request fails outright, the healthy
// source's solutions are always present, and every status block is
// well-formed.
func TestFederationChaosInvariants(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 11, Sites: 6})
	healthy := buildEngine(t, sc.Merged, sc.Policies)
	flaky1 := federation.NewFaultySource(
		federation.NewLocalSource("flaky1", buildEngine(t, sc.Chemical.Store, sc.Policies)),
		federation.FaultConfig{Seed: 42, ErrorRate: 0.35, HangRate: 0.2, GarbageRate: 0.2, Latency: 200 * time.Microsecond})
	flaky2 := federation.NewFaultySource(
		federation.NewLocalSource("flaky2", buildEngine(t, sc.Hydrology.Store, sc.Policies)),
		federation.FaultConfig{Seed: 43, ErrorRate: 0.5, HangRate: 0.3, Latency: 100 * time.Microsecond})

	fed, err := federation.New(federation.Config{
		SourceTimeout: 20 * time.Millisecond,
		Retry:         federation.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:       federation.BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond},
	},
		federation.NewLocalSource("healthy", healthy), flaky1, flaky2)
	if err != nil {
		t.Fatal(err)
	}

	baseline, err := federation.NewLocalSource("baseline", healthy).
		Query(context.Background(), datagen.RoleEmergency, seconto.ActionView, chemQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(baseline)
	validStates := map[string]bool{
		federation.StateOK: true, federation.StateError: true,
		federation.StateTimeout: true, federation.StateOpen: true,
	}
	degraded := 0
	for i := 0; i < 60; i++ {
		resp := fed.Query(context.Background(), datagen.RoleEmergency, seconto.ActionView, chemQuery)
		if resp.Err != nil {
			t.Fatalf("request %d failed outright with a healthy member: %v", i, resp.Err)
		}
		if resp.Degraded {
			degraded++
		}
		got := map[string]bool{}
		for _, k := range rowKeysOver(resp.Result, baseline.Vars) {
			got[k] = true
		}
		for _, k := range want {
			if !got[k] {
				t.Fatalf("request %d: healthy solution missing from merged answer", i)
			}
		}
		if len(resp.Sources) != 3 {
			t.Fatalf("request %d: %d status blocks, want 3", i, len(resp.Sources))
		}
		for _, st := range resp.Sources {
			if !validStates[st.State] {
				t.Errorf("request %d: invalid state %q for %s", i, st.State, st.Source)
			}
			if st.State != federation.StateOpen && st.Attempts < 1 {
				t.Errorf("request %d: %s reports %d attempts", i, st.Source, st.Attempts)
			}
		}
	}
	if degraded == 0 {
		t.Error("chaos run never degraded — fault injection inert, test is vacuous")
	}
	s1, s2 := flaky1.Stats(), flaky2.Stats()
	if s1.Errors+s1.Hangs+s1.Garbage == 0 || s2.Errors+s2.Hangs == 0 {
		t.Errorf("fault stats empty: %+v %+v", s1, s2)
	}
}

// TestRemoteSourceEndToEnd federates a local engine with a real peer served
// over HTTP (httptest + the v1 API) and checks both agree.
func TestRemoteSourceEndToEnd(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 11, Sites: 6})
	chem := buildEngine(t, sc.Chemical.Store, sc.Policies)
	hydro := buildEngine(t, sc.Hydrology.Store, sc.Policies)
	merged := buildEngine(t, sc.Merged, sc.Policies)

	peer := httptest.NewServer(gsacs.NewServer(hydro, nil))
	defer peer.Close()

	fed, err := federation.New(federation.Config{},
		federation.NewLocalSource("chem", chem),
		federation.NewRemoteSource("hydro-remote", peer.URL, peer.Client()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{chemQuery, streamQuery} {
		resp := fed.Query(context.Background(), datagen.RoleEmergency, seconto.ActionView, q)
		if resp.Err != nil {
			t.Fatalf("federated query over HTTP: %v", resp.Err)
		}
		if resp.Degraded {
			t.Fatalf("remote peer degraded: %+v", resp.Sources)
		}
		want := queryKeys(t, federation.NewLocalSource("merged", merged),
			datagen.RoleEmergency, q)
		if got := rowKeys(resp.Result); !equalKeys(got, want) {
			t.Errorf("local+remote rows (%d) != merged rows (%d)", len(got), len(want))
		}
	}

	// A malformed query is terminal: the remote answers 400 and the
	// federator must not retry it into availability.
	resp := fed.Query(context.Background(), datagen.RoleEmergency, seconto.ActionView,
		"SELECT ?x WHERE { broken")
	if resp.Err == nil || !errors.Is(resp.Err, federation.ErrAllSourcesFailed) {
		t.Fatalf("malformed query: err = %v, want ErrAllSourcesFailed", resp.Err)
	}
	for _, st := range resp.Sources {
		if st.Attempts > 1 {
			t.Errorf("source %s retried a terminal query error %d times", st.Source, st.Attempts)
		}
	}
}
