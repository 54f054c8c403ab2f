package gsacs

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
	"repro/internal/sparql"
)

// handleQueries serves the workload introspection surface at /v1/queries:
// the heavy-hitter table of query fingerprints with per-shape latency
// quantiles, row totals, plan-drift bands and outcome counts. ?limit bounds
// the listing (default 20); ?fp=<16-hex> returns one fingerprint's detail.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("fp"); raw != "" {
		fp, err := strconv.ParseUint(raw, 16, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request",
				"fp must be the 16-digit hex fingerprint from the listing")
			return
		}
		snap, ok := s.workload.Get(fp)
		if !ok {
			s.writeError(w, r, http.StatusNotFound, "not_found",
				"fingerprint not tracked (never seen, or displaced by the top-K bound)")
			return
		}
		s.writeJSON(w, r, snap)
		return
	}
	limit, err := positiveIntParam(r, "limit", 20)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	queries := s.workload.TopK(limit)
	if queries == nil {
		queries = []workload.Snapshot{}
	}
	s.writeJSON(w, r, map[string]any{
		"queries":      queries,
		"fingerprints": s.workload.Len(),
		"capacity":     s.workload.Capacity(),
	})
}

// handleProfiles serves the continuous-profiling ring at /v1/profiles: the
// listing reports capture metadata newest first; ?id=N&kind=cpu|heap
// downloads one capture's raw gzipped pprof bytes for `go tool pprof`.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("id"); raw != "" {
		id, err := strconv.Atoi(raw)
		if err != nil || id <= 0 {
			s.writeError(w, r, http.StatusBadRequest, "bad_request",
				"id must be a positive capture id from the listing")
			return
		}
		c, ok := s.profiler.Get(id)
		if !ok {
			s.writeError(w, r, http.StatusNotFound, "not_found",
				"capture not retained (evicted from the ring, or never taken)")
			return
		}
		kind := r.URL.Query().Get("kind")
		var payload []byte
		switch kind {
		case "", "cpu":
			kind, payload = "cpu", c.CPU
		case "heap":
			payload = c.Heap
		default:
			s.writeError(w, r, http.StatusBadRequest, "bad_request",
				"kind must be cpu or heap")
			return
		}
		if len(payload) == 0 {
			// A capture can lose its CPU half when another profiler held the
			// runtime's single CPU-profile slot during the window.
			s.writeError(w, r, http.StatusNotFound, "not_found",
				fmt.Sprintf("capture %d has no %s payload", id, kind))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf(`attachment; filename="grdf-%s-%d.pb.gz"`, kind, id))
		_, _ = w.Write(payload)
		return
	}
	profiles := s.profiler.List()
	if profiles == nil {
		profiles = []prof.Meta{}
	}
	s.writeJSON(w, r, map[string]any{
		"profiles": profiles,
		"capacity": s.profiler.Ring(),
	})
}

// noteQuery writes a parsed query's shape onto the request's record: the
// middleware books the request under its fingerprint.
func noteQuery(rec *obs.Request, q *sparql.Query) {
	rec.Fingerprint, rec.Canonical, rec.Kind = q.Fingerprint, q.CanonicalForm, q.Kind.String()
}

// noteStats writes what evaluating the request's query did onto its record.
func noteStats(rec *obs.Request, st sparql.EvalStats) {
	rec.RowsScanned, rec.RowsOut, rec.Solutions = st.RowsScanned, st.RowsOut, st.Solutions
	rec.Reordered, rec.MaxMisestimate = st.Reordered, st.MaxMisestimate
}
