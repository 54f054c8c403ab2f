package gsacs

import (
	"encoding/json"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Audit trail: security middleware must account for its decisions. Every
// request on a route that takes a role — /v1/view, /v1/resource, /v1/query,
// /v1/mutate — is one entry in a bounded ring buffer that operators can
// drain: who asked (role), what (action, resource), when (trace ID, and the
// generation of the data judged), how it ended (outcome, allowed/full) and
// under which rules. The paper's "emergency response" style of
// administrative oversight needs exactly this record of who saw what.
//
// The entry is the request's record (obs.Request), booked by the middleware
// when the request closes, like every other book. Decisions themselves are
// not audited: a view build decides once per governed resource and gathers
// the rules that fired into its cache entry once, so a view served from the
// cache is one entry and no decision.
//
// Because the ring is bounded, a busy server can overwrite entries before
// anyone drains them. The log counts those overwrites so operators can tell
// a complete trail from a truncated one (and size the ring accordingly).

// AuditEntry records one request and the access decision it was answered
// by; a request refused before any decision (shed, malformed) has only Seq,
// TraceID, Route, Outcome and, when it named one, Subject. It is also the
// JSON of /v1/audit and of a persisted entry.
type AuditEntry struct {
	// Seq is a monotonically increasing sequence number.
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id"`
	Route   string `json:"route"`
	// Subject, Action, Resource identify the request. Resource is empty for
	// a view and for a batch over several resources.
	Subject  rdf.IRI `json:"subject"`
	Action   rdf.IRI `json:"action"`
	Resource string  `json:"resource"`
	// Outcome is the request's, as the middleware books it (ok, error,
	// shed); Allowed and Full summarize the decision.
	Outcome string `json:"outcome"`
	Allowed bool   `json:"allowed"`
	Full    bool   `json:"full"`
	// Policies lists the policy IRIs that fired.
	Policies []string `json:"policies"`
	// Generation is the version of the data the decision was judged against.
	Generation uint64 `json:"generation"`
}

// AuditStats summarizes the ring buffer's occupancy and loss.
type AuditStats struct {
	// Depth is the number of entries currently held.
	Depth int `json:"depth"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// Recorded is the total number of entries ever recorded.
	Recorded uint64 `json:"recorded"`
	// Overwritten counts entries lost to ring wraparound.
	Overwritten uint64 `json:"overwritten"`
}

// auditLog is a fixed-capacity ring buffer, empty and off until EnableAudit
// sizes it. Entry seq sits at (seq-1) % capacity, so every entry recorded
// past capacity overwrote one.
type auditLog struct {
	mu      sync.Mutex
	seq     uint64
	entries []AuditEntry
	// persist, when set, journals every entry (see SetAuditPersist).
	persist     func([]byte) error
	mPersistErr *obs.Counter
}

// noRules is the Policies of an entry no rule fired for: an empty list, not
// a JSON null.
var noRules = []string{}

// Observe books a closed request as the next entry: the middleware's audit
// consumer on every route that takes a role.
func (l *auditLog) Observe(rec *obs.Request) {
	e := AuditEntry{TraceID: rec.TraceID, Route: rec.Route, Subject: rdf.IRI(rec.Role),
		Action: rdf.IRI(rec.Action), Resource: rec.Resource, Outcome: string(rec.Outcome),
		Allowed: rec.Allowed, Full: rec.Full, Policies: rec.Rules, Generation: rec.Generation}
	if e.Policies == nil {
		e.Policies = noRules
	}
	l.mu.Lock()
	if l.entries == nil {
		l.mu.Unlock()
		return
	}
	e = l.recordLocked(e)
	persist, failed := l.persist, l.mPersistErr
	l.mu.Unlock()
	// Journaled outside the lock: the file's order may differ from seq order
	// between concurrent requests, which RestoreAudit renumbers anyway.
	if persist == nil {
		return
	}
	blob, err := json.Marshal(e)
	if err == nil {
		err = persist(blob)
	}
	if err != nil {
		failed.Inc()
	}
}

func (l *auditLog) recordLocked(e AuditEntry) AuditEntry {
	l.seq++
	e.Seq = l.seq
	l.entries[(l.seq-1)%uint64(len(l.entries))] = e
	return e
}

// snapshot returns entries oldest-first; nil when auditing is off.
func (l *auditLog) snapshot() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries == nil {
		return nil
	}
	capacity := uint64(len(l.entries))
	out := make([]AuditEntry, 0, capacity)
	for seq := l.seq - min(l.seq, capacity); seq < l.seq; seq++ {
		out = append(out, l.entries[seq%capacity])
	}
	return out
}

// stats reports occupancy without copying entries.
func (l *auditLog) stats() AuditStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	depth := min(l.seq, uint64(len(l.entries)))
	return AuditStats{Depth: int(depth), Capacity: len(l.entries), Recorded: l.seq, Overwritten: l.seq - depth}
}

// EnableAudit turns on request auditing with the given ring capacity.
// Calling it again resizes (and clears) the log.
func (e *Engine) EnableAudit(capacity int) {
	l := e.audit
	l.mu.Lock()
	l.seq, l.entries = 0, make([]AuditEntry, max(capacity, 1))
	l.mu.Unlock()
	e.metrics.CounterFunc("grdf_audit_overwritten_total", "Audit entries lost to ring-buffer wraparound.",
		func() float64 { return float64(l.stats().Overwritten) })
	e.metrics.GaugeFunc("grdf_audit_entries", "Audit entries currently buffered.",
		func() float64 { return float64(l.stats().Depth) })
}

// AuditTrail returns the recorded entries, oldest first. Nil when auditing
// is disabled.
func (e *Engine) AuditTrail() []AuditEntry { return e.audit.snapshot() }

// AuditStats reports ring occupancy and overwrite loss; the zero value when
// auditing is disabled.
func (e *Engine) AuditStats() AuditStats { return e.audit.stats() }

// SetAuditPersist journals every audit entry through fn as a JSON blob — the
// durable repository's AppendAudit slots in here, so the audit trail
// survives restarts. It may be installed while the server already answers
// requests. Persist failures are counted (grdf_audit_persist_errors_total)
// but fail nothing: neither the request's answer nor its commit may depend
// on audit I/O.
func (e *Engine) SetAuditPersist(fn func([]byte) error) {
	l := e.audit
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persist = fn
	l.mPersistErr = e.metrics.Counter("grdf_audit_persist_errors_total",
		"Audit entries that could not be journaled durably.")
}

// RestoreAudit refills the audit ring from persisted JSON payloads, oldest
// first, typically with the repository's AuditReplay after recovery. Only
// the newest payloads the ring can hold are read, and undecodable ones are
// skipped (the trail is best-effort diagnostics; the file's checksums
// already guarantee the bytes are as written). Entries are NOT re-journaled.
// Call EnableAudit first.
func (e *Engine) RestoreAudit(payloads [][]byte) int {
	l := e.audit
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range payloads[max(0, len(payloads)-len(l.entries)):] {
		var entry AuditEntry
		if err := json.Unmarshal(p, &entry); err != nil {
			continue
		}
		l.recordLocked(entry)
		n++
	}
	return n
}

// noteDecision puts one decision on the request's record for the audit
// trail, with the generation of the data j judged. A request decided more
// than once — a /v1/mutate batch decides per triple — is allowed and full
// while every decision is, its rules are the union, its resource the one its
// decisions share (or none), and a denial names its own action and resource.
func noteDecision(rec *obs.Request, j *judge, action rdf.IRI, resource rdf.Term, acc Access) {
	res := resource.String()
	switch {
	case rec.Action == "":
		rec.Action, rec.Resource, rec.Allowed, rec.Full = string(action), res, true, true
		rec.Generation = j.data.Generation()
	case !acc.Allowed:
		rec.Action, rec.Resource = string(action), res
	case rec.Resource != res:
		rec.Resource = ""
	}
	rec.Allowed = rec.Allowed && acc.Allowed
	rec.Full = rec.Full && acc.Full
	for _, r := range acc.Matched {
		if !slices.Contains(rec.Rules, string(r)) {
			rec.Rules = append(rec.Rules, string(r))
		}
	}
}
