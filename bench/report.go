package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metric is one named number. n is the sample count behind a timing (0 for
// counts and ratios); flag carries a caveat the reader must see.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	flag  string
}

// report is everything one run of one workload produced.
type report struct {
	workload  string
	kind      string // "end-to-end" or "per-layer"
	attempted int
	failed    int
	correct   bool
	metrics   []metric
	notes     []string
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// addPercentile records the q-quantile of sorted under name, flagging it
// when fewer than tailSamples samples lie beyond it.
func (r *report) addPercentile(name string, sorted []float64, q float64) {
	v, ok := percentile(sorted, q)
	m := metric{name: name, value: v, unit: "ms", n: len(sorted)}
	if !ok && q > 0.5 {
		m.flag = fmt.Sprintf("fewer than %d samples beyond: lengthen the run before citing it", tailSamples)
	}
	r.metrics = append(r.metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (%s): attempted %d, failed %d, failed_ratio %.6f\n",
		r.workload, r.kind, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-34s %14.4f %-8s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.flag != "" {
			line += "  [" + m.flag + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// resultLine renders the one-line JSON object the driver reads, holding
// exactly the named metrics.
func (r *report) resultLine(names []string) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]mv{}}
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			return "", fmt.Errorf("workload %s did not produce metric %s", r.workload, name)
		}
		out.Metrics[name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
