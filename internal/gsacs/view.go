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
	if !acc.Allowed {
		return nil
	}
	var out []rdf.Triple
	seen := map[rdf.Triple]struct{}{}
	add := func(t rdf.Triple) {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	var include func(node rdf.Term)
	include = func(node rdf.Term) {
		for _, t := range e.data.DescribeResource(node) {
			add(t)
			if e.isStructuralNode(t.Object) {
				include(t.Object)
			}
		}
	}
	for _, t := range e.data.DescribeResource(resource) {
		pred := t.Predicate.(rdf.IRI)
		if pred == rdf.RDFType {
			add(t)
			continue
		}
		if !acc.PropertyVisible(pred, e.Reasoner()) {
			continue
		}
		add(t)
		// Pull in structural object nodes (envelopes, geometry trees) so the
		// filtered view decodes on its own.
		if e.isStructuralNode(t.Object) {
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
func (e *Engine) isStructuralNode(node rdf.Term) bool {
	switch node.Kind() {
	case rdf.KindBlank:
		return true
	case rdf.KindLiteral:
		return false
	}
	types := e.data.Objects(node, rdf.RDFType)
	if len(types) == 0 {
		return false
	}
	for _, ty := range types {
		iri, ok := ty.(rdf.IRI)
		if !ok {
			return false
		}
		ns := iri.Namespace()
		if ns != grdf.NS && ns != grdf.TemporalNS {
			return false
		}
	}
	return true
}

// View assembles the layered, policy-filtered view for a subject over every
// resource governed by its policies — the paper's middleware step: "before
// presenting the layered view, middleware needs to eliminate data that
// violates security with respect to this role."
func (e *Engine) View(subject, action rdf.IRI) *store.Store {
	return e.ViewCtx(context.Background(), subject, action)
}

// ViewCtx is View with the request context: on a traced context the cache
// probe and (on a miss) the view build run under a gsacs.view span whose
// counters distinguish hit from miss.
func (e *Engine) ViewCtx(ctx context.Context, subject, action rdf.IRI) *store.Store {
	_, sp := obs.StartSpan(ctx, "gsacs.view")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	if e.cache != nil {
		if cached, ok := e.cache.Get(viewKey(subject, action), e.data.Generation()); ok {
			sp.Add("cache_hit", 1)
			return cached
		}
		sp.Add("cache_miss", 1)
	}
	view := e.buildView(subject, action)
	sp.Add("view_triples", int64(view.Len()))
	if e.cache != nil {
		e.cache.Put(viewKey(subject, action), e.data.Generation(), view)
	}
	return view
}

func (e *Engine) buildView(subject, action rdf.IRI) *store.Store {
	view := store.New()
	for _, res := range e.governedResources() {
		acc := e.Decide(subject, action, res)
		if !acc.Allowed {
			continue
		}
		view.AddAll(e.FilterResource(res, acc))
	}
	return view
}

// governedResources enumerates every subject in the data store that has an
// rdf:type (candidate resources), sorted for determinism.
func (e *Engine) governedResources() []rdf.Term {
	seen := map[string]struct{}{}
	var out []rdf.Term
	e.data.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		k := t.Subject.String()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
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
	view := e.ViewCtx(ctx, subject, action)
	eng := sparql.NewEngine(view).Instrument(e.metrics)
	grdf.RegisterSpatialFuncs(eng, view)
	if wl := e.workload; wl != nil {
		// The sink fires exactly once, at evaluation end, so the elapsed
		// time from here covers view assembly plus evaluation — the latency
		// a client of this shape experiences.
		start := time.Now()
		eng.SetStatsSink(func(st sparql.EvalStats) {
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
	view := e.ViewCtx(ctx, subject, action)
	return sparql.NewEngine(view).Explain(query)
}

func viewKey(subject, action rdf.IRI) string {
	return string(subject) + "\x00" + string(action)
}
