// Package gsacs implements the Geospatial Security Access Control System of
// Section 8 / Fig. 3 of the paper: a front-end interface (Server), the
// Decision Engine that determines "what level of permission is warranted for
// a particular user", a Query Cache ("having a caching mechanism that stores
// the queries and corresponding answers would provide a significant
// performance boost"), a plug-and-play Reasoning Engine interface, and the
// Onto Repository holding GRDF and the security ontologies.
//
// The distinguishing capability — the one the paper holds against GeoXACML —
// is property-level filtering: a role can be granted just the grdf:boundedBy
// extent of a chemical site while its chemical inventory stays hidden.
package gsacs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// Reasoner is the plug-and-play reasoning interface of Fig. 3: "any OWL
// reasoning engine could be plugged into the system to meet the need."
// The owl package's Reasoner satisfies it.
type Reasoner interface {
	// IsSubClassOf reports sub ⊑ super (reflexive).
	IsSubClassOf(sub, super rdf.Term) bool
	// IsSubPropertyOf reports sub ⊑ super for properties (reflexive).
	IsSubPropertyOf(sub, super rdf.Term) bool
	// TypesOf returns the (materialized) types of an individual.
	TypesOf(ind rdf.Term) []rdf.Term
}

// nilReasoner answers structurally (no inference) when no reasoner is
// plugged in.
type nilReasoner struct{ data store.Reader }

func (n nilReasoner) IsSubClassOf(sub, super rdf.Term) bool {
	return sub.Equal(super) || n.data.Has(rdf.T(sub, rdf.RDFSSubClassOf, super))
}
func (n nilReasoner) IsSubPropertyOf(sub, super rdf.Term) bool {
	return sub.Equal(super) || n.data.Has(rdf.T(sub, rdf.RDFSSubPropertyOf, super))
}
func (n nilReasoner) TypesOf(ind rdf.Term) []rdf.Term {
	return n.data.Objects(ind, rdf.RDFType)
}

// Engine wires policies, data and a reasoner together.
type Engine struct {
	policies *seconto.Set
	data     *store.Store
	// reasoner is swapped atomically: a read replica rebuilds it over the
	// fresh triple set after every bootstrap, concurrently with decisions
	// already in flight.
	reasoner atomic.Pointer[Reasoner]
	cache    *QueryCache
	// noView answers every (role, action) no policy names: the one empty
	// view, without version or reasoner because nothing was judged to make it.
	noView *cacheEntry
	// audit is the request audit trail, off until EnableAudit.
	audit *auditLog

	// metrics is the observability registry (nil disables; every handle
	// derived from it is nil-safe).
	metrics  *obs.Registry
	mAllowed *obs.Counter
	mDenied  *obs.Counter
	// decisionTimers holds the decision-latency histogram of every role the
	// policy set names, resolved once: a view build decides once per governed
	// resource, and a registry lookup per decision would rebuild the label
	// string and re-take the registry's locks each time. Any other role — the
	// caller's string — is not timed, so it cannot mint a series either.
	decisionTimers map[rdf.IRI]*obs.Histogram
}

// Options configures New.
type Options struct {
	// Reasoner plugs in an inference engine; nil uses direct assertions only.
	Reasoner Reasoner
	// CacheSize selects nothing: the query cache is always on, one slot per
	// role and action the policy set names. The field stays only because
	// bench/ — frozen by BENCHMARK.json — sets it; it goes when bench/ moves.
	CacheSize int
	// Metrics receives decision, cache and query instrumentation; nil
	// disables it.
	Metrics *obs.Registry
}

// New builds an engine over a policy set and a data store. The policy set is
// read without synchronization from here on and must not change.
func New(policies *seconto.Set, data *store.Store, opts Options) *Engine {
	e := &Engine{policies: policies, data: data, metrics: opts.Metrics, cache: newQueryCache(policies), audit: &auditLog{}}
	e.cache.instrument(e.metrics)
	empty := store.New()
	e.noView = &cacheEntry{view: empty, sparql: grdf.NewEngine(empty).Instrument(e.metrics)}
	e.noView.carryDocuments(nil)
	// Rendered here and not counted: a role no policy names exports from
	// memory from its first request on, and moves no counter.
	for f := range viewFormats {
		e.noView.document(f)
	}
	e.SetReasoner(opts.Reasoner)
	e.mAllowed = e.metrics.Counter("grdf_decisions_total",
		"Access decisions by outcome.", "outcome", "allowed")
	e.mDenied = e.metrics.Counter("grdf_decisions_total",
		"Access decisions by outcome.", "outcome", "denied")
	e.decisionTimers = map[rdf.IRI]*obs.Histogram{}
	for _, subject := range policies.Subjects() {
		e.decisionTimers[subject] = e.metrics.Histogram("grdf_decision_duration_seconds",
			"Decision-engine latency by role.", nil, "role", subject.LocalName())
	}
	return e
}

// Metrics returns the engine's registry (nil when observability is off).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SetReasoner swaps the inference engine (nil restores direct assertions
// only). Crash recovery and replication both need it: the server builds the
// engine over an empty store, fills it (durable recovery, or a replica's
// snapshot bootstrap), and only then materializes the reasoner over the
// loaded triples. The swap is atomic — a replica re-bootstraps while
// serving, so a decision in flight keeps the reasoner it started with and
// the next decision sees the new one.
//
// Cached role views hold decisions made under the old reasoner, so the swap
// drops them. A build still in flight under the old reasoner may land after
// the drop; its entry records which reasoner judged it and is rebuilt, not
// served or patched, on its next lookup.
func (e *Engine) SetReasoner(r Reasoner) {
	if r == nil {
		r = nilReasoner{data: e.data}
	}
	e.reasoner.Store(&r)
	e.cache.Clear()
}

// Reasoner returns the current inference engine. Callers that make several
// reasoner calls for one decision read it once, so the decision is judged
// by a single consistent reasoner even if a bootstrap swaps it mid-flight.
func (e *Engine) Reasoner() Reasoner { return *e.reasoner.Load() }

// judge is the decision procedure bound to one version of the data and one
// reasoner. Everything that decides or filters reads through it, so a view
// build, a view patch or a single /v1/resource answer is judged against one
// consistent revision while writers keep publishing newer ones.
type judge struct {
	policies *seconto.Set
	data     store.Reader
	reasoner Reasoner
}

// judgeOver binds the decision procedure to data under the reasoner rp points
// to. With no reasoner plugged in, direct assertions are read from data
// itself rather than from the live store, so a pinned build never consults a
// version newer than the one it is labelled with.
func (e *Engine) judgeOver(data store.Reader, rp *Reasoner) judge {
	r := *rp
	if _, none := r.(nilReasoner); none {
		r = nilReasoner{data: data}
	}
	return judge{policies: e.policies, data: data, reasoner: r}
}

// current binds the decision procedure to the latest published version of
// the data and the current reasoner.
func (e *Engine) current() judge { return e.judgeOver(e.data.View(), e.reasoner.Load()) }

// Data exposes the underlying (unfiltered) store — for administrative paths
// only.
func (e *Engine) Data() *store.Store { return e.data }

// Policies exposes the rule set.
func (e *Engine) Policies() *seconto.Set { return e.policies }

// Cache returns the engine's query cache.
func (e *Engine) Cache() *QueryCache { return e.cache }

// Access is the decision for one (subject, action, resource) triple — the
// Decision Engine's output.
type Access struct {
	// Allowed is false when the resource is completely hidden.
	Allowed bool
	// Full grants every property.
	Full bool
	// Properties are the visible properties when !Full.
	Properties map[rdf.IRI]bool
	// denied records property-level denies that survive a Full grant.
	denied map[rdf.IRI]bool
	// Matched lists the policies that fired, for the audit trail.
	Matched []rdf.IRI
}

// PropertyVisible reports whether the access allows viewing property p,
// honouring subproperty entailment through the reasoner.
func (a Access) PropertyVisible(p rdf.IRI, r Reasoner) bool {
	if !a.Allowed {
		return false
	}
	if a.denied != nil {
		for d := range a.denied {
			if r.IsSubPropertyOf(p, d) {
				return false
			}
		}
	}
	if a.Full {
		return true
	}
	for allowed := range a.Properties {
		if r.IsSubPropertyOf(p, allowed) {
			return true
		}
	}
	return false
}

// Decide runs the decision procedure for subject performing action on
// resource. Policies match when their Resource equals the resource, equals
// one of its types, or is a superclass of one of its types (this is where
// reasoning pays off: a policy over grdf:Feature covers every domain
// subclass). Spatially-scoped policies additionally require the resource's
// geometry to lie within the scope. Conflicts resolve by priority; at equal
// priority deny overrides permit.
func (e *Engine) Decide(subject, action rdf.IRI, resource rdf.Term) Access {
	return e.decideAs(e.current(), subject, action, resource)
}

// decideAs runs j's decision procedure with the engine's accounting around
// it: outcome counters, latency. The audit trail is the request's, not the
// decision's (see audit.go).
func (e *Engine) decideAs(j judge, subject, action rdf.IRI, resource rdf.Term) Access {
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	acc := j.decide(subject, action, resource)
	if e.metrics != nil {
		if acc.Allowed {
			e.mAllowed.Inc()
		} else {
			e.mDenied.Inc()
		}
		e.decisionTimers[subject].ObserveSince(start)
	}
	return acc
}

// DecideCtx is the context-first form of Decide: it refuses to start once
// ctx is done, returning ctx.Err(). The decision itself is in-memory and
// fast, so no further checks happen mid-decision. On a traced context the
// decision gets a gsacs.decide span carrying role, outcome and how many
// policies fired.
func (e *Engine) DecideCtx(ctx context.Context, subject, action rdf.IRI, resource rdf.Term) (Access, error) {
	return e.decideCtx(ctx, e.current(), subject, action, resource)
}

// decideCtx is DecideCtx judged by j, for callers that go on to filter by the
// decision: they pin j once so that the decision and the triples it is
// applied to belong to the same version of the data.
func (e *Engine) decideCtx(ctx context.Context, j judge, subject, action rdf.IRI, resource rdf.Term) (Access, error) {
	if err := ctx.Err(); err != nil {
		return Access{}, err
	}
	_, sp := obs.StartSpan(ctx, "gsacs.decide")
	sp.SetAttr("role", subject.LocalName())
	sp.SetAttr("action", action.LocalName())
	acc := e.decideAs(j, subject, action, resource)
	if acc.Allowed {
		sp.SetAttr("outcome", "allowed")
	} else {
		sp.SetAttr("outcome", "denied")
	}
	sp.Add("policies_matched", int64(len(acc.Matched)))
	sp.End()
	return acc, nil
}

// decide is the un-instrumented decision procedure.
func (j judge) decide(subject, action rdf.IRI, resource rdf.Term) Access {
	rules := j.policies.ForSubject(subject)
	var applicable []seconto.Rule
	for _, r := range rules {
		if r.Action != action {
			continue
		}
		if !j.resourceMatches(r.Resource, resource) {
			continue
		}
		if r.SpatialScope != nil && !j.withinScope(resource, *r.SpatialScope) {
			continue
		}
		applicable = append(applicable, r)
	}
	if len(applicable) == 0 {
		return Access{} // default deny (closed world)
	}
	// Fold from lowest to highest priority so later rules override. Within
	// one priority class permits apply before denies (deny overrides).
	sort.SliceStable(applicable, func(i, j int) bool {
		if applicable[i].Priority != applicable[j].Priority {
			return applicable[i].Priority < applicable[j].Priority
		}
		return applicable[i].Permit && !applicable[j].Permit
	})
	acc := Access{Properties: map[rdf.IRI]bool{}, denied: map[rdf.IRI]bool{}}
	for _, r := range applicable {
		acc.Matched = append(acc.Matched, r.ID)
		switch {
		case r.Permit && len(r.Properties) == 0:
			acc.Full = true
			acc.denied = map[rdf.IRI]bool{}
		case r.Permit:
			for _, p := range r.Properties {
				acc.Properties[p] = true
				delete(acc.denied, p)
			}
		case !r.Permit && len(r.Properties) == 0:
			acc.Full = false
			acc.Properties = map[rdf.IRI]bool{}
			acc.denied = map[rdf.IRI]bool{}
			acc.Matched = acc.Matched[:0]
			acc.Matched = append(acc.Matched, r.ID)
		default: // deny specific properties
			for _, p := range r.Properties {
				delete(acc.Properties, p)
				acc.denied[p] = true
			}
		}
	}
	acc.Allowed = acc.Full || len(acc.Properties) > 0
	return acc
}

// resourceMatches checks policy resource coverage of a concrete resource.
func (j judge) resourceMatches(policyRes rdf.IRI, resource rdf.Term) bool {
	if policyRes.Equal(resource) {
		return true
	}
	for _, ty := range j.reasoner.TypesOf(resource) {
		if j.reasoner.IsSubClassOf(ty, policyRes) {
			return true
		}
	}
	// Also check direct data types when the reasoner is external to data.
	for _, ty := range j.data.Objects(resource, rdf.RDFType) {
		if j.reasoner.IsSubClassOf(ty, policyRes) {
			return true
		}
	}
	return false
}

func (j judge) withinScope(resource rdf.Term, scope geom.Envelope) bool {
	g, _, err := grdf.GeometryOf(j.data, resource)
	if err != nil {
		return false
	}
	return geom.Within(g, scope)
}

// NewOWLReasoner materializes the given ontologies plus the data and returns
// an owl.Reasoner ready to plug into Options.Reasoner.
func NewOWLReasoner(data *store.Store, ontologies ...*rdf.Graph) *owl.Reasoner {
	return materialize(owl.NewReasonerOver(data), ontologies)
}

// MaterializeReasoner plugs in an OWL reasoner materialized over the
// ontologies plus the engine's current data — what a server does once its
// store is filled (at boot, after durable recovery, after every replica
// bootstrap). The reasoner reports into the engine's registry, attached
// before the data is fed so the materialization itself is measured.
func (e *Engine) MaterializeReasoner(ontologies ...*rdf.Graph) {
	e.SetReasoner(materialize(owl.NewReasonerOver(e.data).Instrument(e.metrics), ontologies))
}

// materialize adds the ontologies on top of the data version r starts from
// and derives the closure of both in one drain, so an instrumented reasoner
// books one materialization. The data is neither copied nor re-interned: r
// shares its dictionary and indexes.
func materialize(r *owl.Reasoner, ontologies []*rdf.Graph) *owl.Reasoner {
	var ts []rdf.Triple
	for _, g := range ontologies {
		ts = append(ts, g.Triples()...)
	}
	r.AddAll(ts)
	return r
}
