// Package owl implements the forward-chaining OWL reasoner the GRDF paper
// relies on ("any OWL reasoning engine could be plugged into the system").
// It materializes the RDFS and OWL-Horst (pD*) entailments of a triple store:
// class and property hierarchies, domains and ranges, inverse / symmetric /
// transitive / (inverse-)functional properties, owl:sameAs smushing,
// equivalence, and property restrictions (hasValue, someValuesFrom,
// allValuesFrom). Cardinality and disjointness are handled as consistency
// checks (see Check), matching how the paper's listings use them (Lists 3
// and 5 constrain models rather than derive new facts).
//
// The reasoner is incremental: Add feeds new triples through a semi-naive
// delta queue, so loading an ontology once and streaming instance data stays
// cheap. Materialize is the batch entry point.
package owl

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Stats reports the outcome of a materialization.
type Stats struct {
	// Asserted is the number of input triples: the starting version's plus
	// every new one added since.
	Asserted int
	// Inferred is the number of new triples derived.
	Inferred int
	// Iterations counts delta-queue drain rounds (diagnostic).
	Iterations int
}

// Reasoner maintains a materialized store: the deductive closure of
// everything added so far.
//
// It reasons in ID space. A reasoner started over a data store
// (NewReasonerOver) begins with that store's version: it interns into the
// same dictionary, and its commits path-copy from the data's indexes, so the
// dataset is neither re-interned nor copied. The rules probe the indexes with
// dictionary IDs and never hash a term.
type Reasoner struct {
	st    *store.Store
	stats Stats
	v     vocab
	// queue holds the ID triples the current round fires the rules for: the
	// asserted batch, then each round's new derivations.
	queue [][3]store.ID
	// pending collects the current round's distinct new derivations; the
	// rules read one published version per round, and pending is committed
	// as one batch when the round ends.
	pending [][3]store.ID
	// provenance records, for each inferred triple, the rule that produced
	// it and the delta triple that triggered the rule (first derivation
	// wins). Asserted triples are absent.
	provenance map[[3]store.ID]derivation
	// cur is the provenance context while rules run.
	cur derivation
	// view and terms are the round's published version and the dictionary
	// as of the round's start: every ID the round reads or emits resolves
	// through terms.
	view  store.StoreView
	terms store.DictView

	// Metric handles (set by Instrument; nil-safe no-ops otherwise). The
	// gauges are refreshed after every materialization so /metrics always
	// shows the current closure, not a stale sample.
	instrumented      bool
	mMaterializations *obs.Counter
	mDuration         *obs.Histogram
	mInferred         *obs.Gauge
	mAsserted         *obs.Gauge
	mIterations       *obs.Gauge
}

// Derivation explains one inferred triple.
type Derivation struct {
	// Rule names the rule family that fired (e.g. "subclass").
	Rule string
	// Trigger is the delta triple whose processing produced the inference.
	Trigger rdf.Triple
}

// derivation is a Derivation in ID space: the provenance map holds no
// pointers, so the collector never scans it.
type derivation struct {
	trigger [3]store.ID
	rule    rule
}

// vocab holds the dictionary IDs of every vocabulary term a rule reads,
// interned once at construction so the rules, and concurrent readers of the
// entailment helpers, never intern or hash a term.
type vocab struct {
	typ, subClass, subProp, domain, rng                  store.ID
	eqClass, eqProp, inverseOf, sameAs                   store.ID
	unionOf, intersectionOf, first, rest, listNil        store.ID
	symmetric, transitive, functional, inverseFunctional store.ID
	onProperty, hasValue, someValuesFrom, allValuesFrom  store.ID
}

func internVocab(st *store.Store) vocab {
	i := st.Intern
	return vocab{
		typ: i(rdf.RDFType), subClass: i(rdf.RDFSSubClassOf), subProp: i(rdf.RDFSSubPropertyOf),
		domain: i(rdf.RDFSDomain), rng: i(rdf.RDFSRange),
		eqClass: i(rdf.OWLEquivalentClass), eqProp: i(rdf.OWLEquivalentProperty),
		inverseOf: i(rdf.OWLInverseOf), sameAs: i(rdf.OWLSameAs),
		unionOf: i(rdf.OWLUnionOf), intersectionOf: i(rdf.OWLIntersectionOf),
		first: i(rdf.RDFFirst), rest: i(rdf.RDFRest), listNil: i(rdf.RDFNil),
		symmetric: i(rdf.OWLSymmetricProperty), transitive: i(rdf.OWLTransitiveProperty),
		functional: i(rdf.OWLFunctionalProperty), inverseFunctional: i(rdf.OWLInverseFunctional),
		onProperty: i(rdf.OWLOnProperty), hasValue: i(rdf.OWLHasValue),
		someValuesFrom: i(rdf.OWLSomeValuesFrom), allValuesFrom: i(rdf.OWLAllValuesFrom),
	}
}

// NewReasonerOver returns a reasoner that starts from data's current
// version. That costs O(1): the reasoner's store is a snapshot of data, so it
// shares data's dictionary and indexes, and writes to either store stay
// unseen by the other. The vocabulary the rules read is interned into the
// shared dictionary. Every triple of the version counts as asserted and is
// queued for the next drain: the next AddAll derives the closure of the
// version plus its batch in one drain (AddAll(nil) for the version alone).
// Until then the reasoner holds the version, not its closure.
func NewReasonerOver(data *store.Store) *Reasoner {
	st := data.Snapshot()
	r := &Reasoner{st: st, v: internVocab(st), provenance: make(map[[3]store.ID]derivation)}
	r.queue = make([][3]store.ID, 0, st.Len())
	r.st.ForEachMatchIDs(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		r.queue = append(r.queue, [3]store.ID{s, p, o})
		return true
	})
	r.stats.Asserted = len(r.queue)
	return r
}

// Materialize computes the closure of all triples in src and returns a new
// store holding asserted plus inferred triples. The result shares src's
// dictionary and every index node the closure did not change.
func Materialize(src *store.Store) (*store.Store, Stats) {
	r := NewReasonerOver(src)
	r.AddAll(nil)
	return r.Store(), r.Stats()
}

// Store returns the materialized store (asserted + inferred). Callers must
// not mutate it directly; use Add.
func (r *Reasoner) Store() *store.Store { return r.st }

// Stats returns counters accumulated so far.
func (r *Reasoner) Stats() Stats { return r.stats }

// Instrument exports the reasoner's counters into reg: the current
// reasoner's inferred-triple / iteration gauges, a drain counter, and a
// drain-duration histogram. Call before feeding data; the reasoner itself
// is not concurrency-safe, so neither is this.
func (r *Reasoner) Instrument(reg *obs.Registry) *Reasoner {
	if reg == nil {
		return r
	}
	r.instrumented = true
	r.mMaterializations = reg.Counter("grdf_reasoner_materializations_total",
		"Delta-queue drains: one per materialization and one per later assertion batch.")
	r.mDuration = reg.Histogram("grdf_reasoner_materialize_seconds",
		"Wall time per delta-queue drain (a whole materialization is one drain).", nil)
	r.mInferred = reg.Gauge("grdf_reasoner_inferred_triples",
		"Triples derived (not asserted) in the current closure.")
	r.mAsserted = reg.Gauge("grdf_reasoner_asserted_triples",
		"Triples asserted into the reasoner.")
	r.mIterations = reg.Gauge("grdf_reasoner_iterations",
		"Delta-queue rounds the current reasoner has run, over all its drains.")
	return r
}

// Add asserts one triple and derives its consequences. It reports whether
// the triple was new.
func (r *Reasoner) Add(t rdf.Triple) bool { return r.AddAll([]rdf.Triple{t}) == 1 }

// AddAll asserts a batch in one commit and then derives its consequences,
// which is faster than calling Add per triple. It returns how many distinct
// triples were new.
func (r *Reasoner) AddAll(ts []rdf.Triple) int {
	ids := make([][3]store.ID, 0, len(ts))
	for _, t := range ts {
		if t.Valid() {
			ids = append(ids, [3]store.ID{r.st.Intern(t.Subject), r.st.Intern(t.Predicate), r.st.Intern(t.Object)})
		}
	}
	slices.SortFunc(ids, func(x, y [3]store.ID) int { return slices.Compare(x[:], y[:]) })
	ids = slices.Compact(ids)
	ids = slices.DeleteFunc(ids, func(t [3]store.ID) bool { return r.st.HasIDs(t[0], t[1], t[2]) })
	r.commit(ids)
	r.stats.Asserted += len(ids)
	r.queue = append(r.queue, ids...)
	r.drain()
	return len(ids)
}

// commit adds ids to the reasoner's store as one version. The store is the
// reasoner's own snapshot, which never has a commit hook.
func (r *Reasoner) commit(ids [][3]store.ID) {
	if _, err := r.st.AddIDs(ids); err != nil {
		panic("owl: " + err.Error())
	}
}

// AddGraph asserts every triple of g.
func (r *Reasoner) AddGraph(g *rdf.Graph) int { return r.AddAll(g.Triples()) }

// emit records a derived triple for the current round. Rules call it while
// they read the round's published version, so a derivation that version
// already holds, or that the round has already produced, is dropped here; the
// first derivation of a triple is the one its provenance keeps. A literal
// subject or a non-IRI predicate is no triple and is dropped too.
func (r *Reasoner) emit(s, p, o store.ID) {
	if r.lit(s) || r.terms.Term(p).Kind() != rdf.KindIRI {
		return
	}
	t := [3]store.ID{s, p, o}
	if _, known := r.provenance[t]; known || r.view.HasIDs(s, p, o) {
		return
	}
	r.provenance[t] = r.cur
	r.pending = append(r.pending, t)
}

// lit reports whether id names a literal.
func (r *Reasoner) lit(id store.ID) bool { return r.terms.Term(id).Kind() == rdf.KindLiteral }

// drain runs semi-naive rounds to fixpoint: the rules fire for every triple
// of the queue against one published version, and the round's distinct new
// derivations are committed together — one store version per round — and
// become the next round's queue.
func (r *Reasoner) drain() {
	if len(r.queue) == 0 {
		return
	}
	var start time.Time
	if r.instrumented {
		start = time.Now()
	}
	for len(r.queue) > 0 {
		r.stats.Iterations++
		r.view, r.terms = r.st.View(), r.st.DictView()
		for _, t := range r.queue {
			r.applyRules(t)
		}
		r.commit(r.pending)
		r.stats.Inferred += len(r.pending)
		r.queue, r.pending = r.pending, r.queue[:0]
	}
	r.queue, r.pending = nil, nil
	r.view, r.terms = store.StoreView{}, store.DictView{}
	if r.instrumented {
		r.mMaterializations.Inc()
		r.mDuration.ObserveSince(start)
		r.mInferred.Set(float64(r.stats.Inferred))
		r.mAsserted.Set(float64(r.stats.Asserted))
		r.mIterations.Set(float64(r.stats.Iterations))
	}
}

// hasWithPred is the ID-space fast path behind IsSubClassOf and
// IsSubPropertyOf: it resolves both endpoints through the store dictionary
// (never interning) and probes the SPO index with the pre-interned predicate
// ID. The G-SACS decision engine calls these helpers once per (policy,
// property) pair, so skipping term hashing on the probe matters on that path.
func (r *Reasoner) hasWithPred(sub rdf.Term, pid store.ID, obj rdf.Term) bool {
	sid, ok := r.st.LookupID(sub)
	if !ok {
		return false
	}
	oid, ok := r.st.LookupID(obj)
	if !ok {
		return false
	}
	return r.st.HasIDs(sid, pid, oid)
}

// IsSubClassOf reports whether sub is materialized as a subclass of super
// (true also when sub == super).
func (r *Reasoner) IsSubClassOf(sub, super rdf.Term) bool {
	if sub.Equal(super) {
		return true
	}
	return r.hasWithPred(sub, r.v.subClass, super)
}

// IsSubPropertyOf reports whether sub is materialized as a subproperty of
// super (true also when sub == super).
func (r *Reasoner) IsSubPropertyOf(sub, super rdf.Term) bool {
	if sub.Equal(super) {
		return true
	}
	return r.hasWithPred(sub, r.v.subProp, super)
}

// TypesOf returns the materialized types of an individual.
func (r *Reasoner) TypesOf(ind rdf.Term) []rdf.Term {
	sid, ok := r.st.LookupID(ind)
	if !ok {
		return nil
	}
	view := r.st.DictView()
	var out []rdf.Term
	r.st.ForEachMatchIDs(sid, r.v.typ, store.NoID, func(_, _, oid store.ID) bool {
		out = append(out, view.Term(oid))
		return true
	})
	return out
}

// Explain returns the derivation chain of t, outermost first: each step
// names the rule and the triple that triggered it, ending at an asserted
// triple. ok is false when t is not in the closure; an empty chain with
// ok=true means t was asserted directly.
func (r *Reasoner) Explain(t rdf.Triple) (chain []Derivation, ok bool) {
	if !r.st.Has(t) {
		return nil, false
	}
	cur := [3]store.ID{}
	for i, term := range []rdf.Term{t.Subject, t.Predicate, t.Object} {
		cur[i], _ = r.st.LookupID(term)
	}
	terms := r.st.DictView()
	seen := map[[3]store.ID]bool{}
	for {
		d, inferred := r.provenance[cur]
		if !inferred {
			return chain, true // reached an asserted triple
		}
		chain = append(chain, Derivation{
			Rule:    d.rule.String(),
			Trigger: rdf.T(terms.Term(d.trigger[0]), terms.Term(d.trigger[1]), terms.Term(d.trigger[2])),
		})
		if seen[cur] {
			return chain, true // defensive: cyclic provenance
		}
		seen[cur] = true
		cur = d.trigger
	}
}
