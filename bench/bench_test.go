package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

func mustWorld(t *testing.T, scenarioSeed int64, size string) *world {
	t.Helper()
	w, err := newWorld(scenarioSeed, size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sequence renders the first n ops of client 0's sequence, acknowledging
// each so the write versions advance as they would against a server.
func sequence(w *world, wl *workload, seed int64, n int) string {
	g := newOpGen(w, wl, seed, 0, clients)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		o := g.next()
		g.ack(o)
		sb.WriteString(o.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := mustWorld(t, datasetSeed, "S"), mustWorld(t, datasetSeed, "S")
	if !bytes.Equal(a.dataNT, b.dataNT) || !bytes.Equal(a.policyTTL, b.policyTTL) {
		t.Fatal("the same scenario seed produced different dataset or policy files")
	}
	if other := mustWorld(t, datasetSeed+1, "S"); bytes.Equal(a.dataNT, other.dataNT) {
		t.Fatal("a different scenario seed produced the same dataset")
	}
	for i := range workloads {
		wl := &workloads[i]
		one, again, other := sequence(a, wl, 1, 300), sequence(b, wl, 1, 300), sequence(a, wl, 2, 300)
		if one != again {
			t.Errorf("%s: the same seed produced different op sequences", wl.name)
		}
		if one == other {
			t.Errorf("%s: seeds 1 and 2 produced the same op sequence", wl.name)
		}
	}
}

// TestDeckKeepsTheMix: every whole deck holds the mix in exact proportion.
func TestDeckKeepsTheMix(t *testing.T) {
	w := mustWorld(t, datasetSeed, "S")
	for i := range workloads {
		wl := &workloads[i]
		g := newOpGen(w, wl, 3, 0, clients)
		var got [numKinds]int
		for j := 0; j < 4*len(g.deck); j++ {
			o := g.next()
			g.ack(o)
			got[o.kind]++
		}
		for _, m := range wl.mix {
			if got[m.kind] != 4*m.weight {
				t.Errorf("%s: %d %s ops in four decks, want %d", wl.name, got[m.kind], m.kind, 4*m.weight)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 true", v, ok)
	}
	if _, ok := percentile(sorted[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be supported")
	}
	if v, ok := percentile(sorted[:200], 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v supported=%v, want 190 true", v, ok)
	}
	if v, _ := percentile(sorted[:21], 0.5); v != 11 {
		t.Errorf("p50 of 1..21 = %v, want 11", v)
	}
	rep := &report{}
	rep.addPercentile("x_p99_ms", sorted[:500], 0.99)
	if rep.metrics[0].flag == "" {
		t.Error("an unsupported percentile must be flagged in the report")
	}
}

// inProcess builds the in-process twin of the server over w, as the traced
// run does, and returns a doer that sends ops through ServeHTTP.
func inProcess(t *testing.T, w *world, wl *workload) (*stack, doer) {
	t.Helper()
	tr := &traced{cfg: &config{seed: 1}, w: w, wl: wl, dir: t.TempDir()}
	if err := tr.load(&report{}); err != nil {
		t.Fatal(err)
	}
	st, err := tr.newStack()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	serve := serveHTTP(w, st.handler)
	return st, func(_ int, o *op) (int, []byte, error) {
		status, body := serve(o)
		return status, body, nil
	}
}

// TestOracleMatchesTheEngine: on two scenarios, every role's engine view is
// exactly the view ground truth and List 8 predict, and every op kind as
// every role passes the oracle.
func TestOracleMatchesTheEngine(t *testing.T) {
	for _, scenarioSeed := range []int64{datasetSeed, 11} {
		w := mustWorld(t, scenarioSeed, "S")
		st, do := inProcess(t, w, &workloads[0])
		for _, role := range anyReader {
			var got []string
			for _, tr := range st.engine.View(role, seconto.ActionView).Triples() {
				got = append(got, tr.String())
			}
			if d := diffLines(sortedUnique(got), w.expectedView(role)); d != "" {
				t.Errorf("scenario %d, %s view: %s", scenarioSeed, role.LocalName(), d)
			}
		}
		for k := opKind(0); k < opWrite; k++ {
			for _, role := range anyReader {
				if k == opView && role != datagen.RoleMainRepair {
					continue
				}
				g := newOpGen(w, &workload{mix: []mixEntry{{k, 1, []rdf.IRI{role}}}}, 5, 0, 1)
				for i := 0; i < 6; i++ {
					o := g.next()
					status, body, _ := do(0, o)
					if err := w.check(o, status, body); err != nil {
						t.Errorf("scenario %d, %s: %v", scenarioSeed, o, err)
					}
					if k == opView {
						if err := w.checkViewExact(role, body); err != nil {
							t.Errorf("scenario %d, %s: %v", scenarioSeed, o, err)
						}
					}
				}
			}
		}
	}
}

// TestOracleRejectsLeaksAndLosses: answers that are too generous or too
// short fail, whatever their status code.
func TestOracleRejectsLeaksAndLosses(t *testing.T) {
	w := mustWorld(t, datasetSeed, "S")
	_, do := inProcess(t, w, &workloads[0])
	get := func(k opKind, role rdf.IRI) (*op, []byte) {
		o := newOpGen(w, &workload{mix: []mixEntry{{k, 1, []rdf.IRI{role}}}}, 5, 0, 1).next()
		_, body, _ := do(0, o)
		return o, body
	}

	// Emergency's view handed to MainRep: names, ids, contacts, inventories.
	view, fullBody := get(opView, datagen.RoleEmergency)
	view.role = datagen.RoleMainRepair
	if err := w.check(view, 200, fullBody); err == nil {
		t.Error("MainRep accepted a view holding emergency-only properties")
	}
	// A MainRep view with one site's extent cut out.
	_, ownBody := get(opView, datagen.RoleMainRepair)
	short := regexp.MustCompile(`(?m)^.*boundedBy.*\n`).ReplaceAll(ownBody, nil)
	if err := w.check(view, 200, short); err == nil {
		t.Error("a view without site extents passed")
	}
	// Emergency's aggregation rows handed to MainRep, who must get none.
	agg, rows := get(opAgg, datagen.RoleEmergency)
	agg.role = datagen.RoleMainRepair
	if err := w.check(agg, 200, rows); err == nil {
		t.Error("MainRep accepted aggregation rows")
	}
	// A listing one row short, and one with a row twice.
	list, rows := get(opList, datagen.RoleEmergency)
	var r queryResponse
	if err := json.Unmarshal(rows, &r); err != nil {
		t.Fatal(err)
	}
	for name, results := range map[string][]map[string]string{
		"short":     r.Results[1:],
		"duplicate": append(append([]map[string]string{}, r.Results[1:]...), r.Results[1]),
	} {
		body, _ := json.Marshal(queryResponse{Results: results})
		if err := w.check(list, 200, body); err == nil {
			t.Errorf("a %s listing passed", name)
		}
	}
	// Emergency's description of a site handed to Hazmat: it holds the id.
	res, body := get(opPointResource, datagen.RoleEmergency)
	res.role = datagen.RoleHazmat
	if err := w.check(res, 200, body); err == nil {
		t.Error("Hazmat accepted a resource description holding hasSiteId")
	}
	if err := w.check(list, 503, rows); err == nil {
		t.Error("a 503 passed")
	}
}

// TestSmokeEveryWorkload runs each workload's mix for a second on dataset S
// through the in-process server: no subprocess, but the same generators,
// loop and oracle the end-to-end run uses, and, for the durable mix, the
// same read-back.
func TestSmokeEveryWorkload(t *testing.T) {
	w := mustWorld(t, datasetSeed, "S")
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			_, do := inProcess(t, w, wl)
			gens := make([]*opGen, clients)
			for c := range gens {
				gens[c] = newOpGen(w, wl, 1, c, clients)
			}
			res := runLoad(w, gens, do, time.Second)
			if res.failed > 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
			}
			for _, m := range wl.mix {
				if res.byKind[m.kind] == 0 {
					t.Errorf("no %s op ran", m.kind)
				}
			}
			if wl.durable {
				if lost := verifyDurable(w, gens, do); len(lost) > 0 {
					t.Errorf("read-back: %v", lost)
				}
				gens[0].nameVer[0]++ // pretend one more rename was acknowledged
				if lost := verifyDurable(w, gens, do); len(lost) == 0 {
					t.Error("read-back did not notice a lost acknowledged write")
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced run of the smallest
// workload briefly and checks it fills the per-layer contract.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w := mustWorld(t, datasetSeed, "S")
	cfg := &config{seed: 1, seconds: time.Second, workDir: t.TempDir(), outDir: t.TempDir()}
	rep, err := runTraced(cfg, findWorkload("read_small"), w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct {
		t.Fatalf("traced run failed ops: %v", rep.notes)
	}
	if _, err := rep.resultLine(layerNames); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.outDir + "/trace-read_small.json")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ Spans []span }
	if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Spans) == 0 {
		t.Fatalf("trace file: %v, %d spans", err, len(tr.Spans))
	}
	var bf struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if raw, err = os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.PerLayer {
		if got, _ := rep.get(m.Name); got.unit != m.Unit {
			t.Errorf("%s is reported in %q, BENCHMARK.json says %q", m.Name, got.unit, m.Unit)
		}
	}
	if f, _ := rep.get("wal.fsyncs_per_op"); f.value != 1 {
		t.Errorf("wal.fsyncs_per_op = %v, want exactly 1 at fsync=always", f.value)
	}
}

// TestBenchmarkFileMatchesTheCode keeps BENCHMARK.json and the harness in
// step: same workloads, same metric names and units.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name  string
		Unit  string
		Why   string
		Bound float64
	}
	var bf struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	names := func(list []named) []string {
		out := make([]string, len(list))
		for i, n := range list {
			out[i] = n.Name
		}
		return out
	}
	var wls []string
	for _, wl := range workloads {
		wls = append(wls, wl.name)
	}
	for what, pair := range map[string][2][]string{
		"workloads":  {names(bf.Workloads), wls},
		"end_to_end": {names(bf.EndToEnd), e2eNames},
		"per_layer":  {names(bf.PerLayer), layerNames},
	} {
		if strings.Join(pair[0], " ") != strings.Join(pair[1], " ") {
			t.Errorf("%s: BENCHMARK.json has %v, the code has %v", what, pair[0], pair[1])
		}
	}
	for _, w := range bf.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s")
	}
}

// TestHealthzFloor keeps the floor probe honest: it measures something, on
// both connections.
func TestHealthzFloor(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) }))
	defer srv.Close()
	if n := len(healthzFloor(srv.URL, 100*time.Millisecond)); n < 2*clients {
		t.Errorf("floor probe made %d requests", n)
	}
}
