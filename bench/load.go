package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the closed-loop population: two callers on two keep-alive
// connections, one per core of the reference box. An open-loop generator
// sharing two cores with the server would measure the scheduler, so
// overload and queueing stay with grdf-loadgen/E17/E20 and capacity here is
// ops_per_s.
const clients = 2

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics §1).
const tailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, and whether at
// least tailSamples samples lie beyond it. Callers print unsupported
// percentiles flagged, never silently.
func percentile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= tailSamples
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadResult is what one measured window produced.
type loadResult struct {
	seconds   float64 // longest client window
	opsPerS   float64 // Σ over clients of correct ops / that client's window
	attempted int
	failed    int
	completed int                   // correct ops
	latMS     [numClasses][]float64 // latency of every correct op, sorted
	byKind    [numKinds]int         // attempted per kind
	failures  []string              // first few oracle/transport failures, with op and diff
	userBytes int64                 // N-Triples bytes acknowledged
	gens      []*opGen              // final generator state (acked versions) per client
}

func (r *loadResult) reads() []float64 {
	var all []float64
	for c := classPoint; c < classWrite; c++ {
		all = append(all, r.latMS[c]...)
	}
	sort.Float64s(all)
	return all
}

// doer executes one op and returns the status and body; the HTTP loop and
// the in-process smoke test supply different ones.
type doer func(client int, o *op) (status int, body []byte, err error)

// httpDoer sends ops to base over one keep-alive connection per client.
func httpDoer(w *world, base string) doer {
	hc := make([]*http.Client, clients)
	for i := range hc {
		hc[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return func(client int, o *op) (int, []byte, error) {
		var resp *http.Response
		var err error
		if o.kind == opWrite {
			resp, err = hc[client].Post(base+o.path(w), "application/json", bytes.NewReader(o.wire))
		} else {
			resp, err = hc[client].Get(base + o.path(w))
		}
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// runLoad drives the closed loop for at least d: each client draws its next
// op from its seeded generator as soon as the previous one is answered and
// checked, and stops at the first deck boundary after d. Whole decks keep
// the measured mix exact: cutting a deck short would leave a run with more
// or fewer of the 100×-costlier ops than its neighbour, and that luck was
// the largest part of the run-to-run spread of ops_per_s.
func runLoad(w *world, gens []*opGen, do doer, d time.Duration) *loadResult {
	outs := make([]loadResult, len(gens))
	begin := time.Now()
	end := begin.Add(d)
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, out := gens[c], &outs[c]
			for {
				start := time.Now()
				if g.left == 0 && !start.Before(end) {
					out.seconds = start.Sub(begin).Seconds()
					return
				}
				o := g.next()
				status, body, err := do(c, o)
				done := time.Now()
				if err == nil {
					err = w.check(o, status, body)
				}
				out.attempted++
				out.byKind[o.kind]++
				if err != nil {
					out.failed++
					if len(out.failures) < 5 {
						out.failures = append(out.failures, fmt.Sprintf("%s: %v", o, err))
					}
					continue
				}
				g.ack(o)
				out.latMS[o.kind.class()] = append(out.latMS[o.kind.class()], done.Sub(start).Seconds()*1e3)
				out.completed++
				out.userBytes += int64(o.userBytes)
			}
		}(c)
	}
	wg.Wait()
	res := &loadResult{}
	for i := range outs {
		o := &outs[i]
		res.seconds = max(res.seconds, o.seconds)
		res.opsPerS += float64(o.completed) / o.seconds
		res.attempted += o.attempted
		res.failed += o.failed
		res.completed += o.completed
		res.userBytes += o.userBytes
		res.failures = append(res.failures, o.failures...)
		for c := range o.latMS {
			res.latMS[c] = append(res.latMS[c], o.latMS[c]...)
		}
		for k := range o.byKind {
			res.byKind[k] += o.byKind[k]
		}
	}
	for c := range res.latMS {
		sort.Float64s(res.latMS[c])
	}
	return res
}
