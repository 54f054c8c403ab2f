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
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Stats reports the outcome of a materialization.
type Stats struct {
	// Asserted is the number of input triples.
	Asserted int
	// Inferred is the number of new triples derived.
	Inferred int
	// Iterations counts delta-queue drain rounds (diagnostic).
	Iterations int
}

// Reasoner maintains a materialized store: the deductive closure of
// everything added so far.
type Reasoner struct {
	st    *store.Store
	stats Stats
	// queue holds the triples the current round fires the rules for: the
	// asserted batch, then each round's new derivations.
	queue []rdf.Triple
	// pending collects the current round's distinct new derivations; the
	// rules read one published version per round, and pending is committed
	// as one batch when the round ends.
	pending []rdf.Triple
	// provenance records, for each inferred triple, the rule that produced
	// it and the delta triple that triggered the rule (first derivation
	// wins). Asserted triples are absent.
	provenance map[rdf.Triple]Derivation
	// curRule / curTrigger hold the provenance context while rules run.
	curRule    string
	curTrigger rdf.Triple

	// Dictionary IDs of the vocabulary predicates probed by the hot
	// entailment helpers (IsSubClassOf and friends). Interned once at
	// construction so concurrent readers never race on lazy init.
	idType     store.ID
	idSubClass store.ID
	idSubProp  store.ID

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
	// Rule names the rule family that fired (e.g. "rdfs9-subclass").
	Rule string
	// Trigger is the delta triple whose processing produced the inference.
	Trigger rdf.Triple
}

// NewReasoner returns an empty reasoner.
func NewReasoner() *Reasoner {
	st := store.New()
	return &Reasoner{
		st:         st,
		provenance: make(map[rdf.Triple]Derivation),
		idType:     st.Intern(rdf.RDFType),
		idSubClass: st.Intern(rdf.RDFSSubClassOf),
		idSubProp:  st.Intern(rdf.RDFSSubPropertyOf),
	}
}

// Materialize computes the closure of all triples in src and returns a new
// store holding asserted plus inferred triples.
func Materialize(src *store.Store) (*store.Store, Stats) {
	r := NewReasoner()
	r.AddAll(src.Triples())
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
	seen := make(map[rdf.Triple]struct{}, len(ts))
	for _, t := range ts {
		if _, dup := seen[t]; dup || !t.Valid() || r.st.Has(t) {
			continue
		}
		seen[t] = struct{}{}
		r.queue = append(r.queue, t)
	}
	r.st.AddAll(r.queue)
	r.stats.Asserted += len(r.queue)
	n := len(r.queue)
	r.drain()
	return n
}

// AddGraph asserts every triple of g.
func (r *Reasoner) AddGraph(g *rdf.Graph) int { return r.AddAll(g.Triples()) }

// Entails reports whether t is in the closure.
func (r *Reasoner) Entails(t rdf.Triple) bool { return r.st.Has(t) }

// InferredCount returns how many triples were derived (not asserted).
func (r *Reasoner) InferredCount() int { return r.stats.Inferred }

// emit records a derived triple for the current round. Rules call it while
// they read the round's published version, so a derivation that version
// already holds, or that the round has already produced, is dropped here; the
// first derivation of a triple is the one its provenance keeps.
func (r *Reasoner) emit(t rdf.Triple) {
	if !t.Valid() {
		return
	}
	if _, known := r.provenance[t]; known || r.st.Has(t) {
		return
	}
	r.provenance[t] = Derivation{Rule: r.curRule, Trigger: r.curTrigger}
	r.pending = append(r.pending, t)
}

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
		for _, t := range r.queue {
			r.applyRules(t)
		}
		r.st.AddAll(r.pending)
		r.stats.Inferred += len(r.pending)
		r.queue, r.pending = r.pending, r.queue[:0]
	}
	r.queue, r.pending = nil, nil
	if r.instrumented {
		r.mMaterializations.Inc()
		r.mDuration.ObserveSince(start)
		r.mInferred.Set(float64(r.stats.Inferred))
		r.mAsserted.Set(float64(r.stats.Asserted))
		r.mIterations.Set(float64(r.stats.Iterations))
	}
}

// SubClasses returns every subclass of class (reflexive per RDFS closure
// when the ontology declares it; this helper just reads the materialized
// hierarchy).
func (r *Reasoner) SubClasses(class rdf.Term) []rdf.Term {
	return r.st.Subjects(rdf.RDFSSubClassOf, class)
}

// hasWithPred is the ID-space fast path behind the entailment helpers: it
// resolves both endpoints through the store dictionary (never interning) and
// probes the SPO index with the pre-interned predicate ID. The G-SACS
// decision engine calls these helpers once per (policy, property) pair, so
// skipping term hashing on the probe matters on that path.
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
	return r.hasWithPred(sub, r.idSubClass, super)
}

// IsSubPropertyOf reports whether sub is materialized as a subproperty of
// super (true also when sub == super).
func (r *Reasoner) IsSubPropertyOf(sub, super rdf.Term) bool {
	if sub.Equal(super) {
		return true
	}
	return r.hasWithPred(sub, r.idSubProp, super)
}

// TypesOf returns the materialized types of an individual.
func (r *Reasoner) TypesOf(ind rdf.Term) []rdf.Term {
	sid, ok := r.st.LookupID(ind)
	if !ok {
		return nil
	}
	view := r.st.DictView()
	var out []rdf.Term
	r.st.ForEachMatchIDs(sid, r.idType, store.NoID, func(_, _, oid store.ID) bool {
		out = append(out, view.Term(oid))
		return true
	})
	return out
}

// HasType reports whether the individual has the given (possibly inferred)
// type.
func (r *Reasoner) HasType(ind, class rdf.Term) bool {
	return r.hasWithPred(ind, r.idType, class)
}

// Explain returns the derivation chain of t, outermost first: each step
// names the rule and the triple that triggered it, ending at an asserted
// triple. ok is false when t is not in the closure; an empty chain with
// ok=true means t was asserted directly.
func (r *Reasoner) Explain(t rdf.Triple) (chain []Derivation, ok bool) {
	if !r.st.Has(t) {
		return nil, false
	}
	seen := map[rdf.Triple]bool{}
	cur := t
	for {
		d, inferred := r.provenance[cur]
		if !inferred {
			return chain, true // reached an asserted triple
		}
		chain = append(chain, d)
		if seen[cur] {
			return chain, true // defensive: cyclic provenance
		}
		seen[cur] = true
		cur = d.Trigger
	}
}
