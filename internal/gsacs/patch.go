package gsacs

import (
	"maps"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Patching a stale role view forward. A cache entry holds view ≡ the union,
// over every governed resource r of its base version, of r's filtered closure
// (decide + filterResource). A write changes the closures of few resources,
// and the MVCC diff says which subjects it touched, so the view of the new
// version is the old view minus the old closures of the resources the write
// can have affected plus their new ones — O(what changed), not O(dataset).
//
// Full rebuild stays where patching is unsound or no cheaper. The triggers
// are the two constants below plus, in refreshView, "no entry" and "the
// reasoner was swapped".

// patchMaxShare bounds what is worth patching: when the version diff names,
// or its expansion reaches, more than 1/patchMaxShare of the store's subjects
// (bulk load, follower bootstrap, Clear), judging that many resources twice —
// once per version — costs about what judging all of them once does, and the
// view is rebuilt.
const patchMaxShare = 8

// hierarchyPredicates are the predicates a change to which moves decisions
// the diff cannot localize: with no reasoner plugged in, subclass and
// subproperty entailment is read from the data, so one such triple can flip
// the decision for every resource of a class or the visibility of a property
// everywhere. Rare, global: rebuild.
var hierarchyPredicates = [...]rdf.IRI{rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf}

// patchView derives the role's view of ent.base, and its rule counts, from
// prev, the entry for an older version judged by the same reasoner. It
// reports false, and leaves ent alone, when the view must be rebuilt instead.
// prev is not modified: the view is a new store sharing structure with
// prev.view, or prev.view itself when the write changed nothing the role
// sees.
func (e *Engine) patchView(sp *obs.Span, prev *cacheEntry, ent *cacheEntry, subject, action rdf.IRI) bool {
	base := ent.base
	was, now := e.judgeOver(prev.base, prev.reasoner), e.judgeOver(base, prev.reasoner)
	budget := max(prev.base.Stats().Subjects, base.Stats().Subjects) / patchMaxShare

	var changed []rdf.Term
	base.ChangedSubjects(prev.base, func(id store.ID) bool {
		changed = append(changed, base.TermOf(id))
		return len(changed) <= budget
	})
	if len(changed) > budget {
		return false
	}
	for _, s := range changed {
		for _, p := range hierarchyPredicates {
			if !sameObjects(was.data, now.data, s, p) {
				return false
			}
		}
	}

	// roots are the governed resources whose closure is recomputed. reach
	// adds every resource whose closure, in either version, can hold node's
	// triples or depend on them: node itself when it is governed, and — when
	// node is of the kind a closure descends into — whatever points at it,
	// transitively. The descent in question is filterResource's (structural
	// nodes) and, for spatially scoped policies, the geometry decoder's
	// (GRDF-typed nodes); grdfTyped(any) covers both, in either version, so
	// a node that gained or lost its types is still walked.
	var roots []rdf.Term
	visited := map[rdf.Term]struct{}{}
	var reach func(node rdf.Term)
	reach = func(node rdf.Term) {
		if _, dup := visited[node]; dup || len(visited) > budget {
			return
		}
		visited[node] = struct{}{}
		if was.governed(node) || now.governed(node) {
			roots = append(roots, node)
		}
		if !was.grdfTyped(node, false) && !now.grdfTyped(node, false) {
			return
		}
		for _, j := range [...]*judge{was, now} {
			j.data.ForEachMatch(nil, nil, node, func(t rdf.Triple) bool {
				reach(t.Subject)
				return true
			})
		}
	}
	for _, s := range changed {
		reach(s)
	}
	if len(visited) > budget {
		return false
	}

	// Old closures come out of the view. A structural node can sit in the
	// closures of several resources (two sites sharing one geometry node):
	// taking it out with an affected resource must not take it away from an
	// unaffected one. So, for one round, every resource that reaches a node
	// of an affected resource's old closure is recomputed too. One round is
	// enough: a resource added here is unchanged between the versions — had
	// anything it reaches changed, the walk up from the diff would have found
	// it — so what comes out with it goes straight back in.
	old := map[rdf.Triple]struct{}{}
	fired := maps.Clone(prev.fired)
	direct := len(roots)
	for i := 0; i < len(roots); i++ {
		if !was.governed(roots[i]) {
			continue
		}
		// Uncounted: this decision was counted when prev was built. Its rules
		// leave the entry's counts, and the decision below puts them back.
		acc := was.lookup(subject, action, roots[i])
		countRules(fired, acc, -1)
		for _, t := range was.filterResource(roots[i], acc) {
			old[t] = struct{}{}
			if i < direct {
				reach(t.Subject)
			}
		}
	}
	if len(visited) > budget {
		return false
	}

	fresh := map[rdf.Triple]struct{}{}
	for _, r := range roots {
		if !now.governed(r) {
			continue
		}
		acc := e.decideAs(now, subject, action, r)
		countRules(fired, acc, 1)
		for _, t := range now.filterResource(r, acc) {
			fresh[t] = struct{}{}
		}
	}

	var ops []store.Op
	if gone := minus(old, fresh); len(gone) > 0 {
		ops = append(ops, store.Op{Kind: store.OpRemove, Triples: gone})
	}
	if added := minus(fresh, old); len(added) > 0 {
		ops = append(ops, store.Op{Kind: store.OpAdd, Triples: added})
	}
	sp.Add("patched_subjects", int64(len(roots)))
	view := prev.view
	if len(ops) > 0 {
		view = prev.view.Snapshot()
		ns, err := view.ApplyBatch(ops)
		if err != nil {
			return false
		}
		for _, n := range ns {
			sp.Add("patched_triples", int64(n))
		}
	}
	ent.view, ent.fired = view, fired
	return true
}

// sameObjects reports whether (s, p, *) has the same objects in a and b.
func sameObjects(a, b store.Reader, s, p rdf.Term) bool {
	objs := a.Objects(s, p)
	if len(objs) != b.Count(s, p, nil) {
		return false
	}
	for _, o := range objs {
		if !b.Has(rdf.T(s, p, o)) {
			return false
		}
	}
	return true
}

// minus returns the triples of a that are not in b.
func minus(a, b map[rdf.Triple]struct{}) []rdf.Triple {
	var out []rdf.Triple
	for t := range a {
		if _, ok := b[t]; !ok {
			out = append(out, t)
		}
	}
	return out
}
