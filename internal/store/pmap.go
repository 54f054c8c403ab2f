package store

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the persistent (immutable, structurally shared) map
// that backs the delta of each MVCC triple index over its bases (base.go).
// It is a hash-array-mapped-trie
// specialized for dense uint32 dictionary IDs: keys are consumed 5 bits at a
// time starting from the least significant bits, so the sequential IDs the
// dictionary hands out spread evenly across the fanout-32 nodes and the trie
// stays shallow (depth ≤ 7 for the full 32-bit key space).
//
// Updates path-copy: withAll allocates each node its batch touches exactly
// once, at its final size, and Without only the nodes along the root → leaf
// path (≤ 7 nodes); everything else is shared with the previous map, so
// publishing a new store version is O(touched nodes) allocation while every
// previously captured version stays valid and immutable forever. A nil *pmap
// is the canonical empty map; all methods are nil-safe.

const (
	pmBits   = 5
	pmFanout = 1 << pmBits
	pmMask   = pmFanout - 1
)

// unit is the value type used when a pmap is a set.
type unit = struct{}

// pentry is one slot of a pnode: either a leaf (key, val) or an interior
// subtree (node != nil; key/val are then unused).
type pentry[V any] struct {
	key  ID
	val  V
	node *pnode[V]
}

// pnode is a bitmap-compressed trie node: bit i of bitmap is set iff slot i
// is occupied, and entries holds the occupied slots packed in slot order.
type pnode[V any] struct {
	bitmap  uint32
	entries []pentry[V]
}

// pmap pairs a root node with a cached element count so Len is O(1) — the
// planner's cardinality estimates depend on that.
type pmap[V any] struct {
	root *pnode[V]
	n    int
}

// Len returns the number of entries. Nil-safe.
func (m *pmap[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Get returns the value stored under key.
func (m *pmap[V]) Get(key ID) (V, bool) {
	var zero V
	if m == nil {
		return zero, false
	}
	nd, shift := m.root, uint(0)
	for nd != nil {
		bit := uint32(1) << ((key >> shift) & pmMask)
		if nd.bitmap&bit == 0 {
			return zero, false
		}
		e := &nd.entries[bits.OnesCount32(nd.bitmap&(bit-1))]
		if e.node == nil {
			if e.key == key {
				return e.val, true
			}
			return zero, false
		}
		nd = e.node
		shift += pmBits
	}
	return zero, false
}

// withAll returns a map with every entry of es bound — a key already present
// takes its new value — sharing every node es does not reach with m, and how
// many keys of es were absent. es must have distinct keys and is
// permuted in place; m is unchanged. Into a nil map this builds the whole
// trie bottom-up, each node once, with the shape inserting the keys one by
// one would have produced (a key sits as high as it can without sharing a
// slot).
func (m *pmap[V]) withAll(es []pentry[V]) (*pmap[V], int) {
	if len(es) == 0 {
		return m, 0
	}
	var bitmap uint32
	var old []pentry[V]
	n := 0
	if m != nil {
		bitmap, old, n = m.root.bitmap, m.root.entries, m.n
	}
	var tmp []pentry[V]
	if len(es) > 1 {
		tmp = make([]pentry[V], len(es))
	}
	root, added := pnodeMerge(bitmap, old, es, tmp, 0)
	return &pmap[V]{root: root, n: n + added}, added
}

// Without returns a map with key removed, sharing structure with m.
// removed reports whether key was present. Removing the last entry returns
// nil (the canonical empty map).
func (m *pmap[V]) Without(key ID) (*pmap[V], bool) {
	if m == nil {
		return nil, false
	}
	nr, removed := pnodeWithout(m.root, key, 0)
	if !removed {
		return m, false
	}
	if m.n == 1 {
		return nil, true
	}
	return &pmap[V]{root: nr, n: m.n - 1}, true
}

// Range calls fn for every entry until fn returns false; the return value
// reports whether iteration ran to completion. Order is unspecified but
// deterministic for a given map value.
func (m *pmap[V]) Range(fn func(ID, V) bool) bool {
	if m == nil {
		return true
	}
	return pnodeRange(m.root, fn)
}

func cloneEntries[V any](es []pentry[V]) []pentry[V] {
	out := make([]pentry[V], len(es))
	copy(out, es)
	return out
}

// pnodeMerge returns the node at shift holding old — the entries of an
// existing node whose bitmap is bitmap, or none — with es (non-empty, distinct
// keys) bound over them, and how many keys of es were absent. The node is
// allocated once, at its final size: es is counting-sorted by slot (through
// tmp, its scratch twin, nil when es has one entry), each touched slot is
// merged one level down, and every untouched entry keeps its pointer. A leaf
// whose slot es reaches with another key is pushed down as a one-entry old
// node of the level below, so the pair splits exactly where the keys diverge.
func pnodeMerge[V any](bitmap uint32, old, es, tmp []pentry[V], shift uint) (*pnode[V], int) {
	var start [pmFanout + 1]int
	for i := range es {
		start[(es[i].key>>shift)&pmMask+1]++
	}
	touched := uint32(0)
	for s := 0; s < pmFanout; s++ {
		if start[s+1] > 0 {
			touched |= 1 << s
		}
		start[s+1] += start[s]
	}
	if len(es) > 1 {
		next := start
		for i := range es {
			s := (es[i].key >> shift) & pmMask
			tmp[next[s]] = es[i]
			next[s]++
		}
		copy(es, tmp)
	}
	nb := bitmap | touched
	nd := &pnode[V]{bitmap: nb, entries: make([]pentry[V], 0, bits.OnesCount32(nb))}
	added := 0
	for rest := nb; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		s := bits.TrailingZeros32(bit)
		group := es[start[s]:start[s+1]]
		var gtmp []pentry[V]
		if len(group) > 1 {
			gtmp = tmp[start[s]:start[s+1]]
		}
		var below uint32
		var belowOld []pentry[V]
		if bitmap&bit != 0 {
			i := bits.OnesCount32(bitmap & (bit - 1))
			switch o := &old[i]; {
			case len(group) == 0:
				nd.entries = append(nd.entries, *o)
				continue
			case o.node != nil:
				below, belowOld = o.node.bitmap, o.node.entries
			case len(group) == 1 && group[0].key == o.key:
				nd.entries = append(nd.entries, group[0])
				continue
			default:
				below, belowOld = 1<<((o.key>>(shift+pmBits))&pmMask), old[i:i+1]
			}
		} else if len(group) == 1 {
			nd.entries = append(nd.entries, group[0])
			added++
			continue
		}
		child, n := pnodeMerge(below, belowOld, group, gtmp, shift+pmBits)
		nd.entries = append(nd.entries, pentry[V]{node: child})
		added += n
	}
	return nd, added
}

func pnodeWithout[V any](nd *pnode[V], key ID, shift uint) (*pnode[V], bool) {
	if nd == nil {
		return nil, false
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	if nd.bitmap&bit == 0 {
		return nd, false
	}
	idx := bits.OnesCount32(nd.bitmap & (bit - 1))
	e := nd.entries[idx]
	if e.node != nil {
		child, removed := pnodeWithout(e.node, key, shift+pmBits)
		if !removed {
			return nd, false
		}
		if child == nil {
			return pnodeDrop(nd, bit, idx), true
		}
		ents := cloneEntries(nd.entries)
		if len(child.entries) == 1 && child.entries[0].node == nil {
			// Collapse a single-leaf subtree back into a leaf at this level
			// so lookups after heavy deletion stay shallow.
			ents[idx] = child.entries[0]
		} else {
			ents[idx].node = child
		}
		return &pnode[V]{bitmap: nd.bitmap, entries: ents}, true
	}
	if e.key != key {
		return nd, false
	}
	return pnodeDrop(nd, bit, idx), true
}

// pnodeDrop removes entry idx (slot bit) from nd, returning nil when nd
// becomes empty.
func pnodeDrop[V any](nd *pnode[V], bit uint32, idx int) *pnode[V] {
	if len(nd.entries) == 1 {
		return nil
	}
	ents := make([]pentry[V], len(nd.entries)-1)
	copy(ents, nd.entries[:idx])
	copy(ents[idx:], nd.entries[idx+1:])
	return &pnode[V]{bitmap: nd.bitmap &^ bit, entries: ents}
}

func pnodeRange[V any](nd *pnode[V], fn func(ID, V) bool) bool {
	if nd == nil {
		return true
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		if e.node != nil {
			if !pnodeRange(e.node, fn) {
				return false
			}
		} else if !fn(e.key, e.val) {
			return false
		}
	}
	return true
}

// ---- Triple index over pmaps ------------------------------------------------

// leaf is the third level of a triple index under one (a, b): the key itself
// when it stands alone, or a set of two or more. Most (s,p), (p,o) and (o,s)
// pairs have one key under them, so the lone key lives in its parent's entry
// and costs no map, node or slot array of its own. set is nil exactly when
// the key is inline; a set never holds fewer than two keys — adding to a lone
// key promotes it to a set, and removing a set down to one key collapses it
// back. Whether (a, b) has a leaf at all is the parent's Get ok, never a
// sentinel key.
type leaf struct {
	one ID
	set *pmap[unit]
}

// len returns the number of keys in the leaf.
func (l leaf) len() int {
	if l.set == nil {
		return 1
	}
	return l.set.Len()
}

func (l leaf) has(c ID) bool {
	if l.set == nil {
		return l.one == c
	}
	_, ok := l.set.Get(c)
	return ok
}

// each calls fn for every key until fn returns false; the return value
// reports whether iteration ran to completion.
func (l leaf) each(fn func(ID) bool) bool {
	if l.set == nil {
		return fn(l.one)
	}
	return l.set.Range(func(c ID, _ unit) bool { return fn(c) })
}

// with returns the leaf holding every key of l — none when present is false —
// and of es (non-empty, distinct keys; permuted in place, and appended to when
// a lone key is promoted), and how many keys of es were absent.
func (l leaf) with(present bool, es []pentry[unit]) (leaf, int) {
	switch {
	case !present && len(es) == 1:
		return leaf{one: es[0].key}, 1
	case !present:
		set, n := (*pmap[unit])(nil).withAll(es)
		return leaf{set: set}, n
	case l.set != nil:
		set, n := l.set.withAll(es)
		return leaf{set: set}, n
	}
	if !slices.ContainsFunc(es, func(e pentry[unit]) bool { return e.key == l.one }) {
		es = append(es, pentry[unit]{key: l.one})
	} else if len(es) == 1 {
		return l, 0
	}
	set, n := (*pmap[unit])(nil).withAll(es)
	return leaf{set: set}, n - 1
}

// without returns the leaf with c removed from a set — collapsed to its other
// key when two were left — and whether c was there. A lone key is the
// caller's to drop with its parent entry.
func (l leaf) without(c ID) (leaf, bool) {
	if l.set.Len() == 2 {
		if !l.has(c) {
			return l, false
		}
		var other ID
		l.set.Range(func(k ID, _ unit) bool {
			other = k
			return k == c
		})
		return leaf{one: other}, true
	}
	set, removed := l.set.Without(c)
	return leaf{set: set}, removed
}

// l2 is one top-level branch of a triple index: the two inner levels plus
// the number of triples beneath this branch. That count is the branch's
// share of the per-position cardinality (triples per bound subject/predicate/
// object) the planner reads through EstimateIDs; keeping it inside the
// immutable branch means every pinned version carries its own consistent
// statistics.
type l2 struct {
	m    *pmap[leaf]
	size int
}

// tindex is a persistent three-level triple index (e.g. S→P→O): the adds or
// the tombstones of an index's delta. The zero value is the empty index.
type tindex struct {
	m *pmap[*l2]
}

func (ix tindex) has(a, b, c ID) bool {
	br, ok := ix.m.Get(a)
	if !ok {
		return false
	}
	lf, ok := br.m.Get(b)
	return ok && lf.has(c)
}

// card returns the number of triples under top-level key a.
func (ix tindex) card(a ID) int {
	br, ok := ix.m.Get(a)
	if !ok {
		return 0
	}
	return br.size
}

// card2 returns the number of triples under (a, b).
func (ix tindex) card2(a, b ID) int {
	br, ok := ix.m.Get(a)
	if !ok {
		return 0
	}
	lf, ok := br.m.Get(b)
	if !ok {
		return 0
	}
	return lf.len()
}

// shape returns the number of triples in the index, or an error naming the
// first branch that is empty, whose count disagrees with its leaves, or that
// holds a set of fewer than two keys.
func (ix tindex) shape() (int, error) {
	total := 0
	var err error
	ix.m.Range(func(a ID, br *l2) bool {
		got := 0
		br.m.Range(func(b ID, lf leaf) bool {
			if lf.set != nil && lf.set.Len() < 2 {
				err = fmt.Errorf("set of %d keys under (%d, %d)", lf.set.Len(), a, b)
				return false
			}
			got += lf.len()
			return true
		})
		switch {
		case err != nil:
		case got == 0:
			err = fmt.Errorf("empty branch for id %d", a)
		case got != br.size:
			err = fmt.Errorf("cardinality %d != %d for id %d", br.size, got, a)
		}
		total += got
		return err == nil
	})
	return total, err
}

// without returns the index with (a, b, c) removed; removed reports whether
// it was present. Empty branches are dropped so key counts stay exact.
func (ix tindex) without(a, b, c ID) (tindex, bool) {
	br, ok := ix.m.Get(a)
	if !ok {
		return ix, false
	}
	lf, ok := br.m.Get(b)
	if !ok {
		return ix, false
	}
	var nl leaf
	if lf.set == nil {
		if lf.one != c {
			return ix, false
		}
	} else if nl, ok = lf.without(c); !ok {
		return ix, false
	}
	if br.size == 1 {
		nm, _ := ix.m.Without(a)
		return tindex{m: nm}, true
	}
	var nbm *pmap[leaf]
	if lf.set == nil {
		nbm, _ = br.m.Without(b)
	} else {
		nbm, _ = br.m.withAll([]pentry[leaf]{{key: b, val: nl}})
	}
	nm, _ := ix.m.withAll([]pentry[*l2]{{key: a, val: &l2{m: nbm, size: br.size - 1}}})
	return tindex{m: nm}, true
}

// withAll returns the index with every key triple of ts — sorted and
// distinct — present, and how many of them were absent. Each of the three
// levels is one merge per touched branch, so a node the batch reaches is
// allocated once however many triples land under it; a branch the batch adds
// nothing to (every triple of it already present) keeps its pointer. Into the
// empty index this is the bottom-up build, a lone third key going inline
// directly. The receiver is unchanged.
func (ix tindex) withAll(ts [][3]ID) (tindex, int) {
	// A one-triple batch — most commits — keeps its scratch on the stack.
	var (
		topBuf  [1]pentry[*l2]
		midBuf  [1]pentry[leaf]
		leafBuf [1]pentry[unit]
	)
	top, mid, leaves := topBuf[:0], midBuf[:0], leafBuf[:0]
	added := 0
	for i := 0; i < len(ts); {
		a := ts[i][0]
		var bm *pmap[leaf]
		size := 0
		if br, ok := ix.m.Get(a); ok {
			bm, size = br.m, br.size
		}
		mid = mid[:0]
		grew := 0
		for i < len(ts) && ts[i][0] == a {
			b := ts[i][1]
			leaves = leaves[:0]
			for ; i < len(ts) && ts[i][0] == a && ts[i][1] == b; i++ {
				leaves = append(leaves, pentry[unit]{key: ts[i][2]})
			}
			lf, ok := bm.Get(b)
			if nl, n := lf.with(ok, leaves); n > 0 {
				mid = append(mid, pentry[leaf]{key: b, val: nl})
				grew += n
			}
		}
		if grew > 0 {
			nbm, _ := bm.withAll(mid)
			top = append(top, pentry[*l2]{key: a, val: &l2{m: nbm, size: size + grew}})
			added += grew
		}
	}
	nm, _ := ix.m.withAll(top)
	return tindex{m: nm}, added
}
