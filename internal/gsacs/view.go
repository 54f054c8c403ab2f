package gsacs

import (
	"context"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
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

func (j *judge) filterResource(resource rdf.Term, acc Access) []rdf.Triple {
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
func (j *judge) isStructuralNode(node rdf.Term) bool { return j.grdfTyped(node, true) }

// grdfTyped reports whether node is a blank node or an IRI with a type in the
// GRDF namespaces — with all set, an IRI all of whose types are.
func (j *judge) grdfTyped(node rdf.Term, all bool) bool {
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

// exportView is the role's view serialized in viewFormats[f]: the document of
// the entry ViewCtx would answer with, rendered by that entry's first export
// in f and served from memory to every later one. On a traced context it runs
// under a gsacs.export span whose document attribute says which it was.
func (e *Engine) exportView(ctx context.Context, subject, action rdf.IRI, f int) *document {
	ctx, sp := obs.StartSpan(ctx, "gsacs.export")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	sp.SetAttr("format", viewFormats[f].name)
	d, rendered := e.viewEntry(ctx, subject, action).document(f)
	if rendered {
		e.cache.documents.Add(1)
		sp.SetAttr("document", "rendered")
	} else {
		sp.SetAttr("document", "hit")
	}
	return d
}

// viewEntry is ViewCtx returning the view together with its label: the
// version of the data and the reasoner it was derived from. The request's
// record gets the entry's part of the audit trail: the action, whether the
// role sees anything, the rules the entry's decisions fired and the
// generation they judged — copied from the entry, so a hit decides nothing.
func (e *Engine) viewEntry(ctx context.Context, subject, action rdf.IRI) *cacheEntry {
	ent := e.lookupView(ctx, subject, action)
	rec := obs.RequestOf(ctx)
	rec.Action, rec.Allowed, rec.Rules, rec.Generation = string(action), ent.view.Len() > 0, ent.rules, ent.base.Generation()
	return ent
}

// lookupView is viewEntry's cache probe, and refresh on a miss.
func (e *Engine) lookupView(ctx context.Context, subject, action rdf.IRI) *cacheEntry {
	_, sp := obs.StartSpan(ctx, "gsacs.view")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	s := e.cache.slots[viewKey{subject, action}]
	if s == nil {
		// Closed world: no rule names the pair, so every resource is denied
		// and the view is empty whatever the data holds. Nothing is judged,
		// so the entry reports generation 0.
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
		if e.patchView(sp, prev, ent, subject, action) {
			e.cache.patches.Add(1)
			// The patched view is a new version of the old one: if the old one
			// was asked spatial questions, its index comes along, patched too.
			grdf.CarrySpatialIndex(prev.view.View(), ent.view.View())
		}
	}
	if ent.view == nil {
		ent.view, ent.fired = e.buildView(e.judgeOver(base, rp), subject, action)
		e.cache.rebuilds.Add(1)
	}
	ent.rules = ruleList(ent.fired)
	ent.carryDocuments(prev)
	// The view's query engine is set up here, once per view, not per query:
	// the spatial functions are bound to the view, the metric handles are
	// resolved from the registry a single time, and the answers copy their
	// cells from the entry's.
	ent.sparql = grdf.NewEngine(ent.view).Instrument(e.metrics).SetCells(ent.cells)
	return ent
}

// buildView materializes the role's view over j's version of the data from
// scratch (the cold path, and the patch path's fallback and oracle), in a
// dictionary that numbers the data's terms and copies none. fired counts, per
// rule, the governed resources whose decision it fired in.
func (e *Engine) buildView(j *judge, subject, action rdf.IRI) (view *store.Store, fired map[rdf.IRI]int) {
	var visible []rdf.Triple
	fired = map[rdf.IRI]int{}
	for _, res := range j.governedResources() {
		acc := e.decideAs(j, subject, action, res)
		countRules(fired, acc, 1)
		visible = append(visible, j.filterResource(res, acc)...)
	}
	view = store.NewWithDict(store.NewDictOver(e.data.Dict()))
	view.AddAll(visible)
	return view, fired
}

// countRules adds n to the count of every rule that fired in acc, dropping
// counts that reach zero.
func countRules(fired map[rdf.IRI]int, acc Access, n int) {
	for _, r := range acc.Matched {
		if fired[r] += n; fired[r] == 0 {
			delete(fired, r)
		}
	}
}

// ruleList is the sorted set of rules fired counts, at its exact capacity:
// records alias it, and an append to one must not write into it.
func ruleList(fired map[rdf.IRI]int) []string {
	out := make([]string, 0, len(fired))
	for r := range fired {
		out = append(out, string(r))
	}
	sort.Strings(out)
	return out
}

// governed reports whether node is a candidate resource: a subject with an
// rdf:type.
func (j *judge) governed(node rdf.Term) bool {
	_, typed := j.data.FirstObject(node, rdf.RDFType)
	return typed
}

// governedResources enumerates every governed subject, sorted by N-Triples
// form for determinism; each subject's form is made once.
func (j *judge) governedResources() []rdf.Term {
	type keyed struct {
		nt string
		t  rdf.Term
	}
	var ks []keyed
	j.data.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		ks = append(ks, keyed{t.Subject.String(), t.Subject})
		return true
	})
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.nt, b.nt) })
	ks = slices.CompactFunc(ks, func(a, b keyed) bool { return a.nt == b.nt })
	out := make([]rdf.Term, len(ks))
	for i, k := range ks {
		out[i] = k.t
	}
	return out
}

// Query runs a SPARQL query against the subject's filtered view — the
// G-SACS front-end operation. Spatial filter functions are available. The
// view (and thus the query result) reflects the role's permissions only.
func (e *Engine) Query(subject, action rdf.IRI, query string) (*sparql.Result, error) {
	return e.QueryCtx(context.Background(), subject, action, query)
}

// QueryCtx is the context-first form of Query: it parses query (see Parse)
// and evaluates it (see EvalCtx).
func (e *Engine) QueryCtx(ctx context.Context, subject, action rdf.IRI, query string) (*sparql.Result, error) {
	q, err := e.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.EvalCtx(ctx, subject, action, q)
}

// Parse parses a query, timing the parse phase into the engine's registry.
func (e *Engine) Parse(query string) (*sparql.Query, error) {
	// Every view's SPARQL engine reports into the one registry; the empty
	// view's is always there.
	return e.noView.sparql.Parse(query)
}

// EvalCtx evaluates a parsed query against the subject's filtered view,
// honoring ctx cancellation and deadlines between join steps; the result
// carries what the evaluation did (sparql.EvalStats). On a traced context the
// request runs under a gsacs.query span parenting the view (cache) span and
// the SPARQL evaluation spans.
func (e *Engine) EvalCtx(ctx context.Context, subject, action rdf.IRI, q *sparql.Query) (*sparql.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "gsacs.query")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	res, err := e.viewEntry(ctx, subject, action).sparql.EvalCtx(ctx, q)
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
