package gsacs

import (
	"context"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"

	"repro/internal/grdf"
)

// FilterResource returns the triples of resource visible to the access
// decision. rdf:type triples ride along whenever the resource is visible at
// all (a consumer must know what kind of thing it is looking at); other
// predicates pass the property filter. Objects of visible properties that
// are structural nodes (geometry/envelope blank nodes, condition values…)
// are included transitively so the result is self-contained.
func (e *Engine) FilterResource(resource rdf.Term, acc Access) []rdf.Triple {
	return e.current().filterResource(resource, acc)
}

func (j judge) filterResource(resource rdf.Term, acc Access) []rdf.Triple {
	if !acc.Allowed {
		return nil
	}
	var out []rdf.Triple
	// Each node is described once. Data is a graph, not a tree: structural
	// nodes may be shared, may point at each other in a cycle, and may point
	// back at the resource — whose hidden properties must not ride in on it.
	visited := map[rdf.Term]struct{}{resource: {}}
	var include func(node rdf.Term)
	include = func(node rdf.Term) {
		if _, dup := visited[node]; dup {
			return
		}
		visited[node] = struct{}{}
		for _, t := range j.data.DescribeResource(node) {
			out = append(out, t)
			if j.isStructuralNode(t.Object) {
				include(t.Object)
			}
		}
	}
	for _, t := range j.data.DescribeResource(resource) {
		pred := t.Predicate.(rdf.IRI)
		if pred == rdf.RDFType {
			out = append(out, t)
			continue
		}
		if !acc.PropertyVisible(pred, j.reasoner) {
			continue
		}
		out = append(out, t)
		// Pull in structural object nodes (envelopes, geometry trees) so the
		// filtered view decodes on its own.
		if j.isStructuralNode(t.Object) {
			include(t.Object)
		}
	}
	return out
}

// isStructuralNode reports whether node is a subsidiary description node —
// a blank node, or an IRI whose types all live in the GRDF namespaces
// (geometry, envelopes, time positions). Such nodes travel with the property
// that references them; application-typed resources (chemical inventories,
// linked features) are governed by their own policies instead.
func (j judge) isStructuralNode(node rdf.Term) bool { return j.grdfTyped(node, true) }

// grdfTyped reports whether node is a blank node or an IRI with a type in the
// GRDF namespaces — with all set, an IRI all of whose types are.
func (j judge) grdfTyped(node rdf.Term, all bool) bool {
	switch node.Kind() {
	case rdf.KindBlank:
		return true
	case rdf.KindLiteral:
		return false
	}
	types := j.data.Objects(node, rdf.RDFType)
	n := 0
	for _, ty := range types {
		if iri, ok := ty.(rdf.IRI); ok {
			if ns := iri.Namespace(); ns == grdf.NS || ns == grdf.TemporalNS {
				n++
			}
		}
	}
	if all {
		return n > 0 && n == len(types)
	}
	return n > 0
}

// View assembles the layered, policy-filtered view for a subject over every
// resource governed by its policies — the paper's middleware step: "before
// presenting the layered view, middleware needs to eliminate data that
// violates security with respect to this role."
func (e *Engine) View(subject, action rdf.IRI) *store.Store {
	return e.ViewCtx(context.Background(), subject, action)
}

// ViewCtx is View with the request context: on a traced context the cache
// probe and (on a miss) the refresh run under a gsacs.view span whose
// counters distinguish hit from miss, and a patch from a rebuild.
//
// The returned view reflects one version of the data, at least as new as the
// one current when the call began, and must not be mutated: it is shared
// with the cache and with other readers.
func (e *Engine) ViewCtx(ctx context.Context, subject, action rdf.IRI) *store.Store {
	return e.viewEntry(ctx, subject, action).view
}

// viewEntry is ViewCtx returning the view together with its label: the
// version of the data and the reasoner it was derived from.
func (e *Engine) viewEntry(ctx context.Context, subject, action rdf.IRI) *cacheEntry {
	_, sp := obs.StartSpan(ctx, "gsacs.view")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	s := e.cache.slots[viewKey{subject, action}]
	if s == nil {
		// Closed world: no rule names the pair, so every resource is denied
		// and the view is empty whatever the data holds. One decision, on the
		// resource "*", says so to the audit trail and the counters.
		e.decideAs(e.current(), subject, action, rdf.IRI("*"))
		sp.SetAttr("outcome", "no_policy")
		return e.noView
	}
	// A hit is the store's current version under the engine's reasoner; no
	// lock. The version, not its generation: a follower's re-bootstrap can
	// install another state at a generation the store has shown before.
	prev := s.cur.Load()
	if prev != nil && prev.base.Same(e.data.View()) && prev.reasoner == e.reasoner.Load() {
		e.cache.hits.Add(1)
		sp.Add("cache_hit", 1)
		return prev
	}
	e.cache.misses.Add(1)
	if prev != nil {
		e.cache.stale.Add(1)
	}
	sp.Add("cache_miss", 1)
	// One reader refreshes; the ones behind it wait here and get the entry
	// back from refreshView untouched. A version pinned under the mutex is at
	// least as new as the one just probed, so never too old for this read. Unlock is deferred:
	// a refresh that panics still lets the waiters through.
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := e.refreshView(sp, s.cur.Load(), subject, action)
	s.cur.Store(ent)
	sp.Add("view_triples", int64(ent.view.Len()))
	return ent
}

// refreshView produces the role's current entry from the stale one (nil when
// cold). It pins one version of the data, patches or builds against
// that version alone, and labels the result with it — so a write landing
// meanwhile makes the entry stale, never torn.
func (e *Engine) refreshView(sp *obs.Span, prev *cacheEntry, subject, action rdf.IRI) *cacheEntry {
	rp := e.reasoner.Load()
	base := e.data.View()
	ent := &cacheEntry{base: base, reasoner: rp}
	if prev != nil && prev.reasoner == rp {
		if prev.base.Same(base) {
			return prev
		}
		if view, ok := e.patchView(sp, prev, base, subject, action); ok {
			ent.view = view
			e.cache.patches.Add(1)
			// The patched view is a new version of the old one: if the old one
			// was asked spatial questions, its index comes along, patched too.
			grdf.CarrySpatialIndex(prev.view.View(), view.View())
		}
	}
	if ent.view == nil {
		ent.view = e.buildView(e.judgeOver(base, rp), subject, action)
		e.cache.rebuilds.Add(1)
	}
	// The view's query engine is set up here, once per view, not per query:
	// the spatial functions are bound to the view and the metric handles are
	// resolved from the registry a single time.
	ent.sparql = grdf.NewEngine(ent.view).Instrument(e.metrics)
	return ent
}

// buildView materializes the role's view over j's version of the data from
// scratch: the cold path, the fallback when patching is not sound or not
// cheaper, and the oracle the patch path is tested against.
func (e *Engine) buildView(j judge, subject, action rdf.IRI) *store.Store {
	var visible []rdf.Triple
	for _, res := range j.governedResources() {
		acc := e.decideAs(j, subject, action, res)
		if !acc.Allowed {
			continue
		}
		visible = append(visible, j.filterResource(res, acc)...)
	}
	view := store.New()
	view.AddAll(visible)
	return view
}

// governed reports whether node is a candidate resource: a subject with an
// rdf:type.
func (j judge) governed(node rdf.Term) bool {
	_, typed := j.data.FirstObject(node, rdf.RDFType)
	return typed
}

// governedResources enumerates every governed subject, sorted for
// determinism.
func (j judge) governedResources() []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	var out []rdf.Term
	j.data.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		if _, dup := seen[t.Subject]; !dup {
			seen[t.Subject] = struct{}{}
			out = append(out, t.Subject)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Query runs a SPARQL query against the subject's filtered view — the
// G-SACS front-end operation. Spatial filter functions are available. The
// view (and thus the query result) reflects the role's permissions only.
func (e *Engine) Query(subject, action rdf.IRI, query string) (*sparql.Result, error) {
	return e.QueryCtx(context.Background(), subject, action, query)
}

// QueryCtx is the context-first form of Query: evaluation honors ctx
// cancellation and deadlines between join steps. On a traced context the
// request runs under a gsacs.query span parenting the view (cache) span and
// the SPARQL evaluation spans.
func (e *Engine) QueryCtx(ctx context.Context, subject, action rdf.IRI, query string) (*sparql.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "gsacs.query")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	eng := e.viewEntry(ctx, subject, action).sparql
	if wl := e.workload; wl != nil {
		// The sink is per request (it closes over start and ctx), so it goes
		// on a shallow copy; the copy shares the entry's functions and metric
		// handles. It fires exactly once, at evaluation end.
		start := time.Now()
		perRequest := *eng
		eng = perRequest.SetStatsSink(func(st sparql.EvalStats) {
			wl.Observe(workload.Observation{
				Fingerprint:    st.Fingerprint,
				Canonical:      st.CanonicalForm,
				Kind:           st.Kind.String(),
				Latency:        time.Since(start),
				RowsScanned:    st.RowsScanned,
				RowsOut:        st.RowsOut,
				Reordered:      st.Reordered,
				MaxMisestimate: st.MaxMisestimate,
				Err:            st.Failed,
				TraceID:        obs.TraceID(ctx),
			})
		})
	}
	res, err := eng.QueryCtx(ctx, query)
	if err != nil {
		sp.Fail(err)
	}
	return res, err
}

// ExplainQuery plans query against the subject's filtered view and returns
// the EXPLAIN rendering of each BGP without evaluating it.
func (e *Engine) ExplainQuery(ctx context.Context, subject, action rdf.IRI, query string) (string, error) {
	return e.viewEntry(ctx, subject, action).sparql.Explain(query)
}
