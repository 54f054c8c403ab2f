package gsacs

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/obs/workload"
	"repro/internal/repl"
)

// ClusterPeer names one fleet member the rollup polls.
type ClusterPeer struct {
	// Name labels the peer in the rollup (defaults to its base URL).
	Name string
	// Base is the peer's base URL, e.g. "http://replica-1:8080".
	Base string
}

// ClusterConfig wires the /v1/cluster fleet rollup.
type ClusterConfig struct {
	// SelfName labels this node's own block (default "self").
	SelfName string
	// Peers are the fleet members to poll.
	Peers []ClusterPeer
	// Client is shared across peers; nil gets a pooled default per peer.
	Client *http.Client
	// Timeout bounds the whole fan-out (default 3s): a hung peer must not
	// hang the rollup.
	Timeout time.Duration
	// TopK bounds both the per-peer fingerprint fetch and the merged
	// fleet-wide heavy-hitter list (default 10).
	TopK int
}

// clusterRollup is the server-side state behind /v1/cluster.
type clusterRollup struct {
	selfName string
	sources  []*federation.RemoteSource
	timeout  time.Duration
	topK     int
}

// WithCluster mounts GET /v1/cluster on a router: a fan-out —
// over the federation client machinery, so trace propagation, body bounds
// and error envelopes are shared with query routing — to every peer's
// /v1/slo, /v1/queries and /healthz, merged into one fleet view: per-peer
// health / SLO / replication blocks plus a fleet-wide heavy-hitter list
// summing per-fingerprint counts across the peers. Fingerprints are computed
// from the canonical query form, so the same shape hashes identically on
// every node and the merge is a plain sum.
func WithCluster(cfg ClusterConfig) ServerOption {
	return func(s *Server) {
		cr := &clusterRollup{
			selfName: cfg.SelfName,
			timeout:  cfg.Timeout,
			topK:     cfg.TopK,
		}
		if cr.selfName == "" {
			cr.selfName = "self"
		}
		if cr.timeout <= 0 {
			cr.timeout = 3 * time.Second
		}
		if cr.topK <= 0 {
			cr.topK = 10
		}
		for _, p := range cfg.Peers {
			name := p.Name
			if name == "" {
				name = p.Base
			}
			cr.sources = append(cr.sources,
				federation.NewRemoteSource(name, p.Base, cfg.Client))
		}
		s.cluster = cr
	}
}

// clusterPeerReport is one peer's slice of the rollup.
type clusterPeerReport struct {
	Name string `json:"name"`
	Base string `json:"base"`
	// OK means every probe answered and the peer reports status "ok".
	OK bool `json:"ok"`
	// Status is the peer's /healthz status line ("ok", "lagging",
	// "recovering"; "unreachable" when no probe answered).
	Status string `json:"status"`
	// Errors lists failed probes ("healthz: ...") — a peer can be partially
	// readable (e.g. workload introspection disabled ⇒ /v1/queries 404).
	Errors []string `json:"errors,omitempty"`
	// Replication is the follower state ("ready" / "lagging" /
	// "bootstrapping") when the peer is a replica.
	Replication string  `json:"replication,omitempty"`
	LagSeconds  float64 `json:"lag_seconds,omitempty"`
	// AvailabilityOK / LatencyOK mirror the peer's SLO verdicts; absent when
	// its /v1/slo was unreadable.
	AvailabilityOK *bool `json:"availability_ok,omitempty"`
	LatencyOK      *bool `json:"latency_ok,omitempty"`
	// TopQueries are the peer's heaviest fingerprints.
	TopQueries []workload.Snapshot `json:"top_queries,omitempty"`
}

// fetchPeer runs the three probes against one peer. Probe failures degrade
// the report instead of failing it: the rollup's job is precisely to stay
// useful when part of the fleet is not.
func (c *clusterRollup) fetchPeer(ctx context.Context, src *federation.RemoteSource) clusterPeerReport {
	rep := clusterPeerReport{Name: src.Name(), Base: src.Base(), Status: "unreachable"}
	fail := func(probe string, err error) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", probe, err))
	}

	var health struct {
		Status      string               `json:"status"`
		Replication *repl.FollowerStatus `json:"replication"`
	}
	if err := src.FetchJSON(ctx, "/healthz", &health); err != nil {
		fail("healthz", err)
	} else {
		rep.Status = health.Status
		if health.Replication != nil {
			rep.Replication = health.Replication.State()
			rep.LagSeconds = health.Replication.LagSeconds
		}
	}

	var slo struct {
		AvailabilityOK bool `json:"availability_ok"`
		LatencyOK      bool `json:"latency_ok"`
	}
	if err := src.FetchJSON(ctx, "/v1/slo", &slo); err != nil {
		fail("slo", err)
	} else {
		rep.AvailabilityOK, rep.LatencyOK = &slo.AvailabilityOK, &slo.LatencyOK
	}

	var queries struct {
		Queries []workload.Snapshot `json:"queries"`
	}
	path := fmt.Sprintf("/v1/queries?limit=%d", c.topK)
	if err := src.FetchJSON(ctx, path, &queries); err != nil {
		fail("queries", err)
	} else {
		rep.TopQueries = queries.Queries
	}

	rep.OK = len(rep.Errors) == 0 && rep.Status == "ok"
	return rep
}

// mergeTopQueries folds the peers' snapshot lists into the fleet-wide
// heavy-hitter list: counts, row totals and outcome counters sum; latency
// maxima and drift take the worst node's value (quantiles do not merge
// without the sketches, so per-shape quantiles stay per-node). The router's
// own list is not among them: a replica books each read the router forwards.
func mergeTopQueries(peers []clusterPeerReport, k int) []workload.Snapshot {
	byFP := map[string]*workload.Snapshot{}
	for _, p := range peers {
		for _, snap := range p.TopQueries {
			acc, ok := byFP[snap.Fingerprint]
			if !ok {
				cp := snap
				byFP[snap.Fingerprint] = &cp
				continue
			}
			acc.Count += snap.Count
			acc.CountError += snap.CountError
			acc.Errors += snap.Errors
			acc.Shed += snap.Shed
			acc.Reorders += snap.Reorders
			acc.RowsScan += snap.RowsScan
			acc.RowsOut += snap.RowsOut
			acc.DriftCount += snap.DriftCount
			if snap.MaxMs > acc.MaxMs {
				acc.MaxMs = snap.MaxMs
			}
			if snap.P99Ms > acc.P99Ms {
				acc.P99Ms = snap.P99Ms
			}
			if snap.P90Ms > acc.P90Ms {
				acc.P90Ms = snap.P90Ms
			}
			if snap.P50Ms > acc.P50Ms {
				acc.P50Ms = snap.P50Ms
			}
			if snap.MaxMisestimate > acc.MaxMisestimate {
				acc.MaxMisestimate = snap.MaxMisestimate
				acc.DriftBand = snap.DriftBand
			}
			if snap.LastSeen.After(acc.LastSeen) {
				acc.LastSeen = snap.LastSeen
				if snap.LastTraceID != "" {
					acc.LastTraceID = snap.LastTraceID
				}
			}
		}
	}
	out := make([]workload.Snapshot, 0, len(byFP))
	for _, acc := range byFP {
		out = append(out, *acc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// handleCluster serves the fleet rollup: the local node's block assembled
// in-process, every peer polled concurrently, and the merged heavy-hitter
// list on top.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	c := s.cluster

	self := map[string]any{"name": c.selfName, "status": "ok"}
	if s.workload != nil {
		self["top_queries"] = s.workload.TopK(c.topK)
	}
	selfAvailable := true
	if s.slo != nil {
		st := s.slo.Status()
		self["availability_ok"] = st.AvailabilityOK
		self["latency_ok"] = st.LatencyOK
		selfAvailable = st.AvailabilityOK
	}
	if s.admission != nil {
		self["admission"] = s.admission.Status()
	}

	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	peers := make([]clusterPeerReport, len(c.sources))
	var wg sync.WaitGroup
	for i, src := range c.sources {
		wg.Add(1)
		go func(i int, src *federation.RemoteSource) {
			defer wg.Done()
			peers[i] = c.fetchPeer(ctx, src)
		}(i, src)
	}
	wg.Wait()

	peersOK := 0
	availabilityOK := selfAvailable
	for _, p := range peers {
		if p.OK {
			peersOK++
		}
		if p.AvailabilityOK != nil && !*p.AvailabilityOK {
			availabilityOK = false
		}
	}
	status := "ok"
	if peersOK < len(peers) || !availabilityOK {
		status = "degraded"
	}

	s.writeJSON(w, r, map[string]any{
		"self":  self,
		"peers": peers,
		"fleet": map[string]any{
			"status":          status,
			"peers_total":     len(peers),
			"peers_ok":        peersOK,
			"availability_ok": availabilityOK,
			"top_queries":     mergeTopQueries(peers, c.topK),
		},
	})
}
