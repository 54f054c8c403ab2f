package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
)

// e21OverheadBudget is the acceptance bound: turning on workload
// introspection plus continuous profiling must cost under 5% of client p50
// on the Sec 7.1 open-loop mix.
const e21OverheadBudget = 5.0

// E21Workload measures what the introspection layer costs and proves what
// it catches. Part one runs the E17 open-loop role mix twice per arm —
// once with workload fingerprinting and the profiler ring disabled, once
// with both enabled (profiler on an aggressive periodic cadence so CPU
// windows actually overlap the run) — and compares client p50 against the
// 5% overhead budget; the minimum over rounds is used per arm to damp
// scheduler noise. Part two forces a planner misestimate: a two-pattern
// query whose second pattern the planner costs at rows/boundVarShrink but
// which actually joins to a single row, a ~500x est-vs-actual drift. The
// probe passes when the fingerprint surfaces in the heavy-hitter table
// with a drift band at or past 10x and grdf_plan_misestimate_total fires.
func E21Workload(requests int) *Table {
	if requests <= 0 {
		requests = 200
	}
	t := &Table{
		ID: "E21",
		Title: "Workload introspection: observation overhead vs 5% p50 budget " +
			"and forced plan-misestimate detection",
		Columns: []string{"arm", "target rps", "achieved", "p50", "p99", "errors"},
	}
	const (
		rps        = 150.0
		sloLatency = 250 * time.Millisecond
		sloAvail   = 0.999
		rounds     = 2
	)
	offP50, onP50 := -1.0, -1.0
	var captures int
	for round := 0; round < rounds; round++ {
		for _, introspect := range []bool{false, true} {
			rep, n, err := e21Arm(introspect, rps, requests, sloLatency, sloAvail)
			if err != nil {
				t.AddNote("arm introspect=%v round %d failed: %v", introspect, round, err)
				return t
			}
			arm := "off"
			if introspect {
				arm = "on"
				captures += n
				if onP50 < 0 || rep.Corrected.P50Ms < onP50 {
					onP50 = rep.Corrected.P50Ms
				}
			} else if offP50 < 0 || rep.Corrected.P50Ms < offP50 {
				offP50 = rep.Corrected.P50Ms
			}
			t.AddRow(
				arm,
				fmt.Sprintf("%.0f", rps),
				fmt.Sprintf("%.1f", rep.AchievedRPS),
				fmt.Sprintf("%.2fms", rep.Corrected.P50Ms),
				fmt.Sprintf("%.2fms", rep.Corrected.P99Ms),
				fmt.Sprintf("%d", rep.Errors))
		}
	}
	overhead := 0.0
	if offP50 > 0 && onP50 > offP50 {
		overhead = (onP50 - offP50) / offP50 * 100
	}
	verdict := "PASS"
	if overhead > e21OverheadBudget {
		verdict = "FAIL"
	}
	t.AddNote("introspection overhead: min p50 %.2fms off vs %.2fms on = %+.1f%% (budget %.0f%%): %s",
		offP50, onP50, overhead, e21OverheadBudget, verdict)
	t.AddNote("profiler captures taken during on arms: %d (periodic cadence, ring-bounded)", captures)

	if err := e21DriftProbe(t); err != nil {
		t.AddNote("drift probe failed: %v", err)
	}
	return t
}

// e21Arm runs one fixed-rate trial against a fresh server. When introspect
// is set the server carries a workload table and a started profiler on a
// short periodic cadence; the second return is the number of profile
// captures taken during the run.
func e21Arm(introspect bool, rps float64, requests int, sloLatency time.Duration, sloAvail float64) (load.Report, int, error) {
	slo := obs.NewSLOEngine(obs.SLOConfig{
		LatencyTarget:      sloLatency,
		AvailabilityTarget: sloAvail,
	})
	var opts []gsacs.ServerOption
	var profiler *prof.Profiler
	if introspect {
		reg := obs.NewRegistry()
		opts = append(opts, gsacs.WithWorkload(workload.New(workload.Config{
			Capacity: 256,
			Registry: reg,
		})))
		profiler = prof.New(prof.Config{
			Ring:      4,
			CPUWindow: 100 * time.Millisecond,
			Every:     300 * time.Millisecond,
			Registry:  reg,
		})
		profiler.Start()
		defer profiler.Stop()
		opts = append(opts, gsacs.WithProfiler(profiler))
	}
	srv := scenarioServer(slo, opts...)
	defer srv.Close()

	rep, err := driveMix(srv, load.Config{
		RPS:      rps,
		Duration: time.Duration(float64(requests) / rps * float64(time.Second)),
		SLO:      load.SLO{Latency: sloLatency, Availability: sloAvail},
	})
	if err != nil {
		return load.Report{}, 0, err
	}
	captures := 0
	if profiler != nil {
		captures = len(profiler.List())
	}
	return rep, captures, nil
}

// e21DriftProbe builds a dataset the planner must misjudge: 2000 subjects
// each carrying one :p triple, and exactly one subject carrying a :q
// triple. The probe query runs :q first (estimated and actual cardinality
// 1), then :p with ?s bound — the planner estimates 2000/boundVarShrink
// = 500 rows where the join actually yields one, a 500x misestimate. The
// workload table must band the fingerprint at 100x and the registry must
// carry a non-zero grdf_plan_misestimate_total sample.
func e21DriftProbe(t *Table) error {
	st := store.New()
	for i := 0; i < 2000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e21/S%d", i))
		st.Add(rdf.T(s, rdf.RDFType, grdf.Feature))
		st.Add(rdf.T(s, rdf.IRI("http://e21/p"), rdf.IRI(fmt.Sprintf("http://e21/O%d", i))))
	}
	st.Add(rdf.T(rdf.IRI("http://e21/S0"), rdf.IRI("http://e21/q"), rdf.IRI("http://e21/flag")))

	role := rdf.IRI(seconto.NS + "E21Auditor")
	policies := &seconto.Set{Rules: []seconto.Rule{{
		ID:       rdf.IRI("http://e21/policy/view-all"),
		Subject:  role,
		Action:   seconto.ActionView,
		Resource: grdf.Feature,
		Permit:   true,
	}}}
	reg := obs.NewRegistry()
	wt := workload.New(workload.Config{Capacity: 64, Registry: reg})
	srv := gsacs.NewServer(gsacs.New(policies, st, gsacs.Options{}), nil, gsacs.WithWorkload(wt))

	// The table books requests, so the probe is one: a /v1/query the server
	// answers as it would any client's.
	const query = `SELECT ?s ?o WHERE { ?s <http://e21/q> ?x . ?s <http://e21/p> ?o }`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/query?role=E21Auditor&q="+url.QueryEscape(query), nil))
	var body struct {
		Results []map[string]string `json:"results"`
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("probe query: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body.Results) != 1 {
		return fmt.Errorf("probe query rows = %d (%v), want 1", len(body.Results), err)
	}

	snaps := wt.TopK(4)
	if len(snaps) == 0 {
		return fmt.Errorf("workload table empty after probe query")
	}
	var probe *workload.Snapshot
	pq, err := sparql.ParseQuery(query, nil)
	if err != nil {
		return fmt.Errorf("re-parse probe: %w", err)
	}
	want := fmt.Sprintf("%016x", pq.Fingerprint)
	for i := range snaps {
		if snaps[i].Fingerprint == want {
			probe = &snaps[i]
			break
		}
	}
	if probe == nil {
		return fmt.Errorf("probe fingerprint %s not in top-K", want)
	}
	if probe.MaxMisestimate < workload.DriftWarnRatio {
		return fmt.Errorf("max_misestimate = %.1f, want >= %d", probe.MaxMisestimate, workload.DriftWarnRatio)
	}
	if probe.DriftBand == "" {
		return fmt.Errorf("drift_band empty at misestimate %.1f", probe.MaxMisestimate)
	}
	var misestimates float64
	for _, m := range reg.Snapshot() {
		if m.Name == "grdf_plan_misestimate_total" {
			misestimates += m.Value
		}
	}
	if misestimates == 0 {
		return fmt.Errorf("grdf_plan_misestimate_total did not fire")
	}
	t.AddNote("forced misestimate detected: fingerprint %s max_misestimate=%.0fx band=%s drift_count=%d",
		probe.Fingerprint, probe.MaxMisestimate, probe.DriftBand, probe.DriftCount)
	t.AddNote("grdf_plan_misestimate_total fired %d time(s); structured drift warning logged at first crossing",
		int(misestimates))
	return nil
}
