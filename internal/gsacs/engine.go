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
	"slices"
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
	// rules are the policy set compiled: per (role, action) it names, its
	// rules in fold order (see compile). Read-only once the engine is built.
	rules map[viewKey][]seconto.Rule
	data  *store.Store
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
	// policy set names, resolved once: a view build books one decision per
	// governed resource, and a registry lookup per decision would rebuild the label
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
	e := &Engine{policies: policies, rules: compile(policies), data: data, metrics: opts.Metrics, audit: &auditLog{}}
	e.cache = newQueryCache(e.rules)
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

// compile groups the policy set's rules by the (role, action) they govern,
// each group in the order a decision folds it: priority ascending, within a
// priority permits before denies (so that at equal priority deny overrides
// permit), and the set's own order otherwise.
func compile(policies *seconto.Set) map[viewKey][]seconto.Rule {
	rules := map[viewKey][]seconto.Rule{}
	for _, r := range policies.Rules {
		k := viewKey{r.Subject, r.Action}
		rules[k] = append(rules[k], r)
	}
	for _, rs := range rules {
		sort.SliceStable(rs, func(i, j int) bool {
			return rs[i].Priority < rs[j].Priority || rs[i].Priority == rs[j].Priority && rs[i].Permit && !rs[j].Permit
		})
	}
	return rules
}

// judge is the decision procedure bound to one version of the data and one
// reasoner. Everything that decides or filters reads through it, so a view
// build, a view patch or a single /v1/resource answer is judged against one
// consistent revision while writers keep publishing newer ones.
//
// A judge remembers what it decided for as long as it lives — one view build,
// one side of a patch, one /v1/resource, one /v1/mutate batch — and is used
// by one goroutine. Its version and reasoner are fixed, so what it remembers
// never goes stale.
type judge struct {
	data     store.Reader
	reasoner Reasoner
	rules    map[viewKey][]seconto.Rule
	tables   map[viewKey]*table
	types    []rdf.Term // scratch for lookup, as are key and set
	key, set []byte
}

// table is what a judge has decided for one (role, action), by the role's
// compiled rules: covered maps a type set (its types in N-Triples, one a
// line) to one byte per rule, 1 where a type of the set is a subclass of the
// rule's resource; folds maps a set of applicable rules (one byte per rule)
// to its fold.
type table struct {
	covered map[string]string
	folds   map[string]Access
}

// judgeOver binds the decision procedure to data under the reasoner rp points
// to. With no reasoner plugged in, direct assertions are read from data
// itself rather than from the live store, so a pinned build never consults a
// version newer than the one it is labelled with.
func (e *Engine) judgeOver(data store.Reader, rp *Reasoner) *judge {
	r := *rp
	if _, none := r.(nilReasoner); none {
		r = nilReasoner{data: data}
	}
	return &judge{data: data, reasoner: r, rules: e.rules, tables: map[viewKey]*table{}}
}

// current binds the decision procedure to the latest published version of
// the data and the current reasoner.
func (e *Engine) current() *judge { return e.judgeOver(e.data.View(), e.reasoner.Load()) }

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

// Decide runs the decision procedure (see judge.lookup) for subject
// performing action on resource. A policy over a class covers every subclass
// the reasoner knows of: a policy over grdf:Feature covers every domain
// feature. Conflicts resolve by priority; at equal priority deny overrides
// permit.
func (e *Engine) Decide(subject, action rdf.IRI, resource rdf.Term) Access {
	return e.decideAs(e.current(), subject, action, resource)
}

// decideAs runs j's decision procedure with the engine's accounting around
// it: outcome counters, latency. The audit trail is the request's, not the
// decision's (see audit.go).
func (e *Engine) decideAs(j *judge, subject, action rdf.IRI, resource rdf.Term) Access {
	var start time.Time
	if e.metrics != nil {
		start = time.Now()
	}
	acc := j.lookup(subject, action, resource)
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
func (e *Engine) decideCtx(ctx context.Context, j *judge, subject, action rdf.IRI, resource rdf.Term) (Access, error) {
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

// lookup is the un-instrumented decision procedure. A rule of (subject,
// action) applies to resource when a type of the resource is a subclass of
// the rule's resource or the rule names the resource itself, and, for a
// spatially scoped rule, when the resource lies within the scope. The first
// is a function of the resource's type set and is worked out once per set;
// each set of applicable rules is folded once, into an Access every resource
// it applies to shares, read-only.
func (j *judge) lookup(subject, action rdf.IRI, resource rdf.Term) Access {
	k := viewKey{subject, action}
	rules := j.rules[k]
	if len(rules) == 0 {
		return Access{} // default deny (closed world)
	}
	t := j.tables[k]
	if t == nil {
		t = &table{covered: map[string]string{}, folds: map[string]Access{}}
		j.tables[k] = t
	}
	// The type set: the reasoner's types, and the asserted ones for a
	// reasoner external to the data.
	j.types = append(append(j.types[:0], j.reasoner.TypesOf(resource)...), j.data.Objects(resource, rdf.RDFType)...)
	j.key = j.key[:0]
	for _, ty := range j.types {
		j.key = append(rdf.AppendTerm(j.key, ty), '\n')
	}
	covered, ok := t.covered[string(j.key)]
	if !ok {
		set := make([]byte, len(rules))
		for r, rule := range rules {
			if slices.ContainsFunc(j.types, func(ty rdf.Term) bool { return j.reasoner.IsSubClassOf(ty, rule.Resource) }) {
				set[r] = 1
			}
		}
		covered = string(set)
		t.covered[string(j.key)] = covered
	}
	j.set = append(j.set[:0], covered...)
	for r, rule := range rules {
		if rule.Resource.Equal(resource) {
			j.set[r] = 1
		}
		if j.set[r] == 1 && rule.SpatialScope != nil && !j.withinScope(resource, *rule.SpatialScope) {
			j.set[r] = 0
		}
	}
	acc, ok := t.folds[string(j.set)]
	if !ok {
		acc = fold(rules, j.set)
		t.folds[string(j.set)] = acc
	}
	return acc
}

// fold is the decision the rules marked in applicable (one byte per rule)
// make, folded in order: later rules override earlier ones. No rule at all is
// the closed world's deny.
func fold(rules []seconto.Rule, applicable []byte) Access {
	if !slices.Contains(applicable, 1) {
		return Access{}
	}
	acc := Access{Properties: map[rdf.IRI]bool{}, denied: map[rdf.IRI]bool{}}
	for i, r := range rules {
		if applicable[i] == 0 {
			continue
		}
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
			acc.Matched = append(acc.Matched[:0], r.ID)
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

func (j *judge) withinScope(resource rdf.Term, scope geom.Envelope) bool {
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
