package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// version is one immutable MVCC revision of the store: the three persistent
// triple indexes plus the statistics and dictionary view that describe them.
// A version is never mutated after publication — writers build the next
// version by path-copying (see builder) and publish it with one atomic
// pointer store, so any number of readers can hold any number of versions
// for any length of time without blocking anyone.
type version struct {
	spo tindex // subject → predicate → object
	pos tindex // predicate → object → subject
	osp tindex // object → subject → predicate
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
// fn, dispatching to the index with the longest bound prefix. It reads only
// immutable state and therefore needs no locks.
func (v *version) forEachMatch(sid, pid, oid ID, fn func(sid, pid, oid ID) bool) {
	switch {
	case sid != NoID && pid != NoID && oid != NoID:
		if v.spo.has(sid, pid, oid) {
			fn(sid, pid, oid)
		}
	case sid != NoID && pid != NoID:
		if br, ok := v.spo.m.Get(sid); ok {
			if inner, ok := br.m.Get(pid); ok {
				inner.Range(func(o ID, _ unit) bool { return fn(sid, pid, o) })
			}
		}
	case sid != NoID && oid != NoID:
		if br, ok := v.osp.m.Get(oid); ok {
			if inner, ok := br.m.Get(sid); ok {
				inner.Range(func(p ID, _ unit) bool { return fn(sid, p, oid) })
			}
		}
	case pid != NoID && oid != NoID:
		if br, ok := v.pos.m.Get(pid); ok {
			if inner, ok := br.m.Get(oid); ok {
				inner.Range(func(su ID, _ unit) bool { return fn(su, pid, oid) })
			}
		}
	case sid != NoID:
		if br, ok := v.spo.m.Get(sid); ok {
			br.m.Range(func(p ID, objs *pmap[unit]) bool {
				return objs.Range(func(o ID, _ unit) bool { return fn(sid, p, o) })
			})
		}
	case pid != NoID:
		if br, ok := v.pos.m.Get(pid); ok {
			br.m.Range(func(o ID, subs *pmap[unit]) bool {
				return subs.Range(func(su ID, _ unit) bool { return fn(su, pid, o) })
			})
		}
	case oid != NoID:
		if br, ok := v.osp.m.Get(oid); ok {
			br.m.Range(func(su ID, preds *pmap[unit]) bool {
				return preds.Range(func(p ID, _ unit) bool { return fn(su, p, oid) })
			})
		}
	default:
		v.spo.m.Range(func(su ID, br *l2) bool {
			return br.m.Range(func(p ID, objs *pmap[unit]) bool {
				return objs.Range(func(o ID, _ unit) bool { return fn(su, p, o) })
			})
		})
	}
}

// estimate returns the exact number of triples matching the ID pattern in
// O(1) using the per-branch subtree counts.
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
// (NoID = wildcard) in O(1); this is the planner's selectivity source.
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

// Subjects returns the distinct subjects of triples (*, pred, obj).
func (sv StoreView) Subjects(pred, obj rdf.Term) []rdf.Term {
	var out []rdf.Term
	sv.ForEachMatch(nil, pred, obj, func(t rdf.Triple) bool {
		out = append(out, t.Subject)
		return true
	})
	return out
}

// SubjectsOfType returns all subjects with rdf:type class.
func (sv StoreView) SubjectsOfType(class rdf.Term) []rdf.Term {
	return sv.Subjects(rdf.RDFType, class)
}

// Triples returns every triple of the pinned version (fresh slice).
func (sv StoreView) Triples() []rdf.Triple { return sv.Match(nil, nil, nil) }

// DescribeResource returns all triples with sub as subject, in a stable
// predicate-sorted order — used by the G-SACS result assembler.
func (sv StoreView) DescribeResource(sub rdf.Term) []rdf.Triple {
	ts := sv.Match(sub, nil, nil)
	sort.Slice(ts, func(i, j int) bool {
		pi, pj := ts[i].Predicate.String(), ts[j].Predicate.String()
		if pi != pj {
			return pi < pj
		}
		return ts[i].Object.String() < ts[j].Object.String()
	})
	return ts
}

// Stats computes summary statistics for the pinned version.
func (sv StoreView) Stats() Stats {
	v := sv.ver()
	dictTerms := v.terms.Len()
	if sv.dict != nil {
		dictTerms = sv.dict.Len()
	}
	return Stats{
		Triples:    v.size,
		Subjects:   v.spo.keys(),
		Predicates: v.pos.keys(),
		Objects:    v.osp.keys(),
		DictTerms:  dictTerms,
	}
}

// Validate checks index consistency of the pinned version: SPO/POS/OSP
// agreement, per-branch cardinality counts, size, and dictionary resolution.
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
		ix   tindex
	}{{"SPO", v.spo}, {"POS", v.pos}, {"OSP", v.osp}} {
		total := 0
		ok := ix.ix.m.Range(func(key ID, br *l2) bool {
			got := 0
			br.m.Range(func(_ ID, inner *pmap[unit]) bool {
				got += inner.Len()
				return true
			})
			if got != br.size {
				err = fmt.Errorf("store: %s cardinality %d != %d for id %d", ix.name, br.size, got, key)
				return false
			}
			if got == 0 {
				err = fmt.Errorf("store: %s empty branch for id %d", ix.name, key)
				return false
			}
			total += got
			return true
		})
		if !ok {
			return err
		}
		if total != v.size {
			return fmt.Errorf("store: %s total %d != size %d", ix.name, total, v.size)
		}
	}
	return nil
}
