package store

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// version is one immutable MVCC revision of the store: the three triple
// indexes plus the statistics and dictionary view that describe them. A
// version is never mutated after publication — writers build the next version
// over the same bases, path-copying only the small deltas (see builder), and
// publish it with one atomic pointer store, so any number of readers can hold
// any number of versions for any length of time without blocking anyone.
type version struct {
	spo xindex // subject → predicate → object
	pos xindex // predicate → object → subject
	osp xindex // object → subject → predicate
	// size is the triple count of this version.
	size int
	// generation counts the commits since the empty store (see
	// Store.Generation).
	generation uint64
	// terms resolves every ID reachable from the indexes. It is captured
	// after all of the version's terms were interned, so resolution through
	// a pinned version never misses.
	terms DictView
	// derived memoizes the one structure computed from this version's
	// triples (see StoreView.Derived). It is the one field that changes after
	// publication, and only by being filled, once, with a function of the
	// immutable rest. built is set after val so that Peek can read val
	// without entering the once.
	derived struct {
		once  sync.Once
		val   any
		built atomic.Bool
	}
}

// forEachMatch streams ID triples matching the pattern (NoID = wildcard) to
// fn, dispatching to the index with the longest bound prefix, in that index's
// trie order. It reads only immutable state and therefore needs no locks.
func (v *version) forEachMatch(sid, pid, oid ID, fn func(sid, pid, oid ID) bool) {
	switch {
	case sid != NoID && pid != NoID && oid != NoID:
		if v.spo.has(sid, pid, oid) {
			fn(sid, pid, oid)
		}
	case sid != NoID && pid != NoID:
		v.spo.eachPair(sid, pid, func(o ID) bool { return fn(sid, pid, o) })
	case sid != NoID && oid != NoID:
		v.osp.eachPair(oid, sid, func(p ID) bool { return fn(sid, p, oid) })
	case pid != NoID && oid != NoID:
		v.pos.eachPair(pid, oid, func(su ID) bool { return fn(su, pid, oid) })
	case sid != NoID:
		v.spo.eachUnder(sid, func(p, o ID) bool { return fn(sid, p, o) })
	case pid != NoID:
		v.pos.eachUnder(pid, func(o, su ID) bool { return fn(su, pid, o) })
	case oid != NoID:
		v.osp.eachUnder(oid, func(su, p ID) bool { return fn(su, p, oid) })
	default:
		v.spo.each(fn)
	}
}

// estimate returns the exact number of triples matching the ID pattern from
// the bases' offsets and the deltas' per-branch counts.
func (v *version) estimate(sid, pid, oid ID) int {
	switch {
	case sid != NoID && pid != NoID && oid != NoID:
		if v.spo.has(sid, pid, oid) {
			return 1
		}
		return 0
	case sid != NoID && pid != NoID:
		return v.spo.card2(sid, pid)
	case pid != NoID && oid != NoID:
		return v.pos.card2(pid, oid)
	case sid != NoID && oid != NoID:
		return v.osp.card2(oid, sid)
	case sid != NoID:
		return v.spo.card(sid)
	case pid != NoID:
		return v.pos.card(pid)
	case oid != NoID:
		return v.osp.card(oid)
	default:
		return v.size
	}
}

// Reader is the read surface shared by *Store and StoreView. *Store reads
// always see the latest published version; a StoreView is pinned to one
// version forever. The SPARQL planner and executor are written against this
// interface so a whole query evaluates against a single consistent revision.
type Reader interface {
	Len() int
	Generation() uint64
	Has(t rdf.Triple) bool
	HasIDs(sid, pid, oid ID) bool
	EstimateIDs(sid, pid, oid ID) int
	LookupID(t rdf.Term) (ID, bool)
	TermOf(id ID) rdf.Term
	DictView() DictView
	Match(sub, pred, obj rdf.Term) []rdf.Triple
	Count(sub, pred, obj rdf.Term) int
	ForEachMatch(sub, pred, obj rdf.Term, fn func(rdf.Triple) bool)
	ForEachMatchIDs(sid, pid, oid ID, fn func(sid, pid, oid ID) bool)
	Objects(sub, pred rdf.Term) []rdf.Term
	FirstObject(sub, pred rdf.Term) (rdf.Term, bool)
	Subjects(pred, obj rdf.Term) []rdf.Term
	SubjectsOfType(class rdf.Term) []rdf.Term
	Triples() []rdf.Triple
	DescribeResource(sub rdf.Term) []rdf.Triple
	// View pins the reader's current version: for *Store the latest published
	// one, for a StoreView itself. Acquiring a view is one atomic load — O(1),
	// never blocking, and holdable indefinitely without stalling writers.
	View() StoreView
}

// StoreView is a pinned, immutable view of one store version. The zero value
// is an empty view. All methods are lock-free: they read only immutable
// version state, so a view can be held across an arbitrarily long query (or
// forever) while writers keep publishing new versions.
type StoreView struct {
	v    *version
	dict *Dict
}

var emptyVersion = &version{}

func (sv StoreView) ver() *version {
	if sv.v == nil {
		return emptyVersion
	}
	return sv.v
}

// Derived returns the structure memoized on the pinned version, calling build
// to make it on first use. Concurrent first uses wait for one build. The
// structure must be a function of the version's triples alone: it is shared
// by every reader of the version — every engine over it, every Snapshot
// pinned to it — for as long as the version is reachable, and goes with it.
// A version has room for one (today: the spatial index of package grdf), so
// every caller must pass a build of the same structure, and build must not
// call Derived on the same version.
func (sv StoreView) Derived(build func() any) any {
	d := &sv.ver().derived
	d.once.Do(func() {
		d.val = build()
		d.built.Store(true)
	})
	return d.val
}

// Peek returns what Derived has memoized, without building it: ok is false
// when no build has finished.
func (sv StoreView) Peek() (val any, ok bool) {
	d := &sv.ver().derived
	if !d.built.Load() {
		return nil, false
	}
	return d.val, true
}

// Len returns the number of triples in the pinned version.
func (sv StoreView) Len() int { return sv.ver().size }

// Generation returns the commit count of the pinned version.
func (sv StoreView) Generation() uint64 { return sv.ver().generation }

// Same reports whether sv and o pin the same version. Equal generations do
// not say so: Load can install a version at a generation the store has shown
// before, with other contents.
func (sv StoreView) Same(o StoreView) bool { return sv.ver() == o.ver() }

// View returns the view itself (it is already pinned).
func (sv StoreView) View() StoreView { return sv }

// DictView returns the dictionary view captured with the version.
func (sv StoreView) DictView() DictView { return sv.ver().terms }

// TermOf resolves a dictionary ID through the pinned dictionary view.
func (sv StoreView) TermOf(id ID) rdf.Term { return sv.ver().terms.Term(id) }

// LookupID resolves a term to its dictionary ID without interning. Terms
// interned after the view was pinned may resolve to IDs, but such IDs match
// nothing in the pinned indexes, which is the correct answer for this view.
func (sv StoreView) LookupID(t rdf.Term) (ID, bool) {
	if sv.dict == nil {
		return NoID, false
	}
	return sv.dict.Lookup(t)
}

func (sv StoreView) lookupTriple(t rdf.Triple) ([3]ID, bool) {
	if t.Subject == nil || t.Predicate == nil || t.Object == nil {
		return [3]ID{}, false
	}
	sid, ok := sv.LookupID(t.Subject)
	if !ok {
		return [3]ID{}, false
	}
	pid, ok := sv.LookupID(t.Predicate)
	if !ok {
		return [3]ID{}, false
	}
	oid, ok := sv.LookupID(t.Object)
	if !ok {
		return [3]ID{}, false
	}
	return [3]ID{sid, pid, oid}, true
}

// lookupPattern resolves pattern terms to IDs (nil → NoID wildcard); ok is
// false when a non-nil term is unknown, meaning the pattern cannot match.
func (sv StoreView) lookupPattern(sub, pred, obj rdf.Term) (sid, pid, oid ID, ok bool) {
	if sub != nil {
		if sid, ok = sv.LookupID(sub); !ok {
			return 0, 0, 0, false
		}
	}
	if pred != nil {
		if pid, ok = sv.LookupID(pred); !ok {
			return 0, 0, 0, false
		}
	}
	if obj != nil {
		if oid, ok = sv.LookupID(obj); !ok {
			return 0, 0, 0, false
		}
	}
	return sid, pid, oid, true
}

// Has reports whether t is in the pinned version.
func (sv StoreView) Has(t rdf.Triple) bool {
	ids, ok := sv.lookupTriple(t)
	if !ok {
		return false
	}
	return sv.HasIDs(ids[0], ids[1], ids[2])
}

// HasIDs reports whether the fully-bound ID triple is in the pinned version.
func (sv StoreView) HasIDs(sid, pid, oid ID) bool { return sv.ver().spo.has(sid, pid, oid) }

// EstimateIDs returns the exact number of triples matching the ID pattern
// (NoID = wildcard) without walking any match: from the base's offsets and
// the delta's per-branch counts. This is the planner's selectivity source.
func (sv StoreView) EstimateIDs(sid, pid, oid ID) int { return sv.ver().estimate(sid, pid, oid) }

// ForEachMatchIDs streams matching ID triples to fn; NoID positions are
// wildcards and fn returning false stops early. Lock-free: fn may take as
// long as it likes (and may even mutate the owning store — it will not see
// its own writes in this view).
func (sv StoreView) ForEachMatchIDs(sid, pid, oid ID, fn func(sid, pid, oid ID) bool) {
	sv.ver().forEachMatch(sid, pid, oid, fn)
}

// ForEachMatch streams matching triples to fn; fn returning false stops
// early.
func (sv StoreView) ForEachMatch(sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	sid, pid, oid, ok := sv.lookupPattern(sub, pred, obj)
	if !ok {
		return
	}
	v := sv.ver()
	v.forEachMatch(sid, pid, oid, func(a, b, c ID) bool {
		return fn(rdf.T(v.terms.Term(a), v.terms.Term(b), v.terms.Term(c)))
	})
}

// Match returns all triples matching the pattern; nil positions are
// wildcards.
func (sv StoreView) Match(sub, pred, obj rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	sv.ForEachMatch(sub, pred, obj, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (sv StoreView) Count(sub, pred, obj rdf.Term) int {
	sid, pid, oid, ok := sv.lookupPattern(sub, pred, obj)
	if !ok {
		return 0
	}
	n := 0
	sv.ver().forEachMatch(sid, pid, oid, func(ID, ID, ID) bool { n++; return true })
	return n
}

// Objects returns the distinct objects of triples (sub, pred, *).
func (sv StoreView) Objects(sub, pred rdf.Term) []rdf.Term {
	var out []rdf.Term
	sv.ForEachMatch(sub, pred, nil, func(t rdf.Triple) bool {
		out = append(out, t.Object)
		return true
	})
	return out
}

// FirstObject returns one object of (sub, pred, *), if any.
func (sv StoreView) FirstObject(sub, pred rdf.Term) (rdf.Term, bool) {
	var got rdf.Term
	sv.ForEachMatch(sub, pred, nil, func(t rdf.Triple) bool {
		got = t.Object
		return false
	})
	return got, got != nil
}

// Subjects returns the distinct subjects of triples (*, pred, obj), each
// where its first match comes.
func (sv StoreView) Subjects(pred, obj rdf.Term) []rdf.Term {
	_, pid, oid, ok := sv.lookupPattern(nil, pred, obj)
	if !ok {
		return nil
	}
	// With pred and obj both bound, each match has a subject of its own.
	var seen map[ID]bool
	if pid == NoID || oid == NoID {
		seen = map[ID]bool{}
	}
	var out []rdf.Term
	v := sv.ver()
	v.forEachMatch(NoID, pid, oid, func(s, _, _ ID) bool {
		if seen != nil {
			if seen[s] {
				return true
			}
			seen[s] = true
		}
		out = append(out, v.terms.Term(s))
		return true
	})
	return out
}

// SubjectsOfType returns all subjects with rdf:type class.
func (sv StoreView) SubjectsOfType(class rdf.Term) []rdf.Term {
	return sv.Subjects(rdf.RDFType, class)
}

// Triples returns every triple of the pinned version (fresh slice).
func (sv StoreView) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, sv.Len())
	sv.ForEachMatch(nil, nil, nil, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// DescribeResource returns all triples with sub as subject, in a stable
// predicate-sorted order — used by the G-SACS result assembler. The order is
// by N-Triples form, of the predicate and then of the object; a form is made
// once, when a comparison first needs it.
func (sv StoreView) DescribeResource(sub rdf.Term) []rdf.Triple {
	sid, ok := sv.LookupID(sub)
	if !ok {
		return nil
	}
	v := sv.ver()
	d := &describeOrder{terms: v.terms}
	v.forEachMatch(sid, NoID, NoID, func(_, p, o ID) bool {
		d.po = append(d.po, [2]ID{p, o})
		return true
	})
	if len(d.po) == 0 {
		return nil
	}
	if len(d.po) > 1 {
		// About a predicate's form each: most comparisons end there.
		d.span, d.buf = make([][2][2]int32, len(d.po)), make([]byte, 0, 48*len(d.po))
		sort.Sort(d)
	}
	ts := make([]rdf.Triple, len(d.po))
	s := v.terms.Term(sid)
	for i, po := range d.po {
		ts[i] = rdf.T(s, v.terms.Term(po[0]), v.terms.Term(po[1]))
	}
	return ts
}

// describeOrder sorts one subject's (predicate, object) pairs by their
// N-Triples forms.
type describeOrder struct {
	terms DictView
	po    [][2]ID
	// span[i][k] is where the form of po[i][k] sits in buf; its end is 0
	// until the form is made.
	span [][2][2]int32
	buf  []byte
}

// form returns the form of po[i][k].
func (d *describeOrder) form(i, k int) []byte {
	sp := &d.span[i][k]
	if sp[1] == 0 {
		sp[0] = int32(len(d.buf))
		d.buf = rdf.AppendTerm(d.buf, d.terms.Term(d.po[i][k]))
		sp[1] = int32(len(d.buf))
	}
	return d.buf[sp[0]:sp[1]]
}

func (d *describeOrder) Len() int { return len(d.po) }

func (d *describeOrder) Swap(i, j int) {
	d.po[i], d.po[j] = d.po[j], d.po[i]
	d.span[i], d.span[j] = d.span[j], d.span[i]
}

func (d *describeOrder) Less(i, j int) bool {
	if d.po[i][0] != d.po[j][0] {
		if c := bytes.Compare(d.form(i, 0), d.form(j, 0)); c != 0 {
			return c < 0
		}
	}
	return bytes.Compare(d.form(i, 1), d.form(j, 1)) < 0
}

// Stats computes summary statistics for the pinned version. DictTerms is
// the dictionary as the version was published: a pinned view's stats do not
// grow with later commits.
func (sv StoreView) Stats() Stats {
	v := sv.ver()
	return Stats{
		Triples:    v.size,
		Subjects:   v.spo.keys,
		Predicates: v.pos.keys,
		Objects:    v.osp.keys,
		DictTerms:  v.terms.Len(),
	}
}

// Validate checks index consistency of the pinned version: SPO/POS/OSP
// agreement, size, dictionary resolution, and each index's shape — a base in
// trie order, a delta disjoint from it (adds) or inside it (tombstones) with
// exact per-branch counts and a third-level set of at least two keys, and
// exact key and delta counts.
func (sv StoreView) Validate() error {
	v := sv.ver()
	n := 0
	var err error
	v.forEachMatch(NoID, NoID, NoID, func(su, p, o ID) bool {
		n++
		if !v.pos.has(p, o, su) {
			err = fmt.Errorf("store: POS missing %d %d %d", su, p, o)
			return false
		}
		if !v.osp.has(o, su, p) {
			err = fmt.Errorf("store: OSP missing %d %d %d", su, p, o)
			return false
		}
		if v.terms.Term(su) == nil || v.terms.Term(p) == nil || v.terms.Term(o) == nil {
			err = fmt.Errorf("store: dangling dictionary ID in %d %d %d", su, p, o)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if n != v.size {
		return fmt.Errorf("store: size %d != indexed %d", v.size, n)
	}
	for _, ix := range []struct {
		name string
		ix   *xindex
	}{{"SPO", &v.spo}, {"POS", &v.pos}, {"OSP", &v.osp}} {
		total, err := ix.ix.shape()
		if err != nil {
			return fmt.Errorf("store: %s %w", ix.name, err)
		}
		if total != v.size {
			return fmt.Errorf("store: %s total %d != size %d", ix.name, total, v.size)
		}
		if ix.ix.delta != v.spo.delta {
			return fmt.Errorf("store: %s delta of %d triples, SPO's %d", ix.name, ix.ix.delta, v.spo.delta)
		}
	}
	return nil
}
