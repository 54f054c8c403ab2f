package experiments

import (
	"fmt"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
)

// E17Load answers the north-star capacity question with a number: the
// maximum request rate the Sec 7.1 G-SACS scenario sustains while meeting
// its latency SLO. Each arm starts a fresh in-process HTTP server (fresh
// SLO engine too — the sliding windows must not leak between arms) and
// fires the open-loop role mix at a fixed arrival rate; latencies are
// coordinated-omission corrected by anchoring every sample at its intended
// start. The server's own /v1/slo view is sampled after each arm so the
// client-side and server-side p99 can be cross-checked — they must agree
// within ~20% on a steady-state run, the client's number being larger by
// queueing and transport.
func E17Load(requests int) *Table {
	if requests <= 0 {
		requests = 200
	}
	t := &Table{
		ID: "E17",
		Title: "Open-loop load: max sustained RPS at p99 under SLO " +
			"(Sec 7.1 mix, corrected for coordinated omission)",
		Columns: []string{"target rps", "achieved", "client p50", "client p99",
			"server p99", "errors", "slo"},
	}
	const (
		sloLatency = 250 * time.Millisecond
		sloAvail   = 0.999
	)
	var maxSustained float64
	var agreements []float64
	for _, rps := range []float64{100, 200, 400} {
		achieved, rep, serverP99, err := e17Arm(rps, requests, sloLatency, sloAvail)
		if err != nil {
			t.AddNote("arm %v rps failed: %v", rps, err)
			return t
		}
		verdict := "PASS"
		if !rep.SLO.Pass {
			verdict = "FAIL"
		} else if achieved > maxSustained {
			maxSustained = achieved
		}
		if serverP99 > 0 && rep.Corrected.P99Ms > 0 {
			agreements = append(agreements, rep.Corrected.P99Ms/serverP99)
		}
		t.AddRow(
			fmt.Sprintf("%.0f", rps),
			fmt.Sprintf("%.1f", achieved),
			fmt.Sprintf("%.2fms", rep.Corrected.P50Ms),
			fmt.Sprintf("%.2fms", rep.Corrected.P99Ms),
			fmt.Sprintf("%.2fms", serverP99),
			fmt.Sprintf("%d", rep.Errors),
			verdict)
	}
	t.AddNote("max sustained: %.1f rps at p99 <= %s, availability >= %g",
		maxSustained, sloLatency, sloAvail)
	for _, ratio := range agreements {
		if ratio > 0 {
			t.AddNote("client/server p99 ratio %.2f (client includes queueing + transport; ~1.0 on steady state)", ratio)
			break
		}
	}
	t.AddNote("client p99 is corrected: each sample anchored at its intended start on the arrival schedule")
	return t
}

// e17Arm runs one fixed-rate trial against a fresh server and returns the
// achieved rate, the client report, and the server-side fast-window p99.
func e17Arm(rps float64, requests int, sloLatency time.Duration, sloAvail float64) (float64, load.Report, float64, error) {
	slo := obs.NewSLOEngine(obs.SLOConfig{
		LatencyTarget:      sloLatency,
		AvailabilityTarget: sloAvail,
	})
	srv := scenarioServer(slo)
	defer srv.Close()

	rep, err := driveMix(srv, load.Config{
		RPS:      rps,
		Duration: time.Duration(float64(requests) / rps * float64(time.Second)),
		SLO:      load.SLO{Latency: sloLatency, Availability: sloAvail},
	})
	if err != nil {
		return 0, load.Report{}, 0, err
	}
	return rep.AchievedRPS, rep, slo.Status().Fast.P99Ms, nil
}
