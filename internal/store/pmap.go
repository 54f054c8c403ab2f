package store

import "math/bits"

// This file implements the persistent (immutable, structurally shared) map
// that backs the MVCC triple indexes. It is a hash-array-mapped-trie
// specialized for dense uint32 dictionary IDs: keys are consumed 5 bits at a
// time starting from the least significant bits, so the sequential IDs the
// dictionary hands out spread evenly across the fanout-32 nodes and the trie
// stays shallow (depth ≤ 7 for the full 32-bit key space).
//
// Updates path-copy: With/Without allocate only the nodes along the root →
// leaf path (≤ 7 nodes) and share everything else with the previous map, so
// publishing a new store version after a mutation is O(log n) allocation
// while every previously captured version stays valid and immutable forever.
// A nil *pmap is the canonical empty map; all methods are nil-safe.

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

// With returns a map with key bound to val, sharing structure with m.
// added reports whether key was absent before.
func (m *pmap[V]) With(key ID, val V) (*pmap[V], bool) {
	var root *pnode[V]
	n := 0
	if m != nil {
		root, n = m.root, m.n
	}
	nr, added := pnodeWith(root, key, val, 0)
	if added {
		n++
	}
	return &pmap[V]{root: nr, n: n}, added
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

func pnodeWith[V any](nd *pnode[V], key ID, val V, shift uint) (*pnode[V], bool) {
	bit := uint32(1) << ((key >> shift) & pmMask)
	if nd == nil {
		return &pnode[V]{bitmap: bit, entries: []pentry[V]{{key: key, val: val}}}, true
	}
	idx := bits.OnesCount32(nd.bitmap & (bit - 1))
	if nd.bitmap&bit == 0 {
		ents := make([]pentry[V], len(nd.entries)+1)
		copy(ents, nd.entries[:idx])
		ents[idx] = pentry[V]{key: key, val: val}
		copy(ents[idx+1:], nd.entries[idx:])
		return &pnode[V]{bitmap: nd.bitmap | bit, entries: ents}, true
	}
	e := nd.entries[idx]
	if e.node != nil {
		child, added := pnodeWith(e.node, key, val, shift+pmBits)
		ents := cloneEntries(nd.entries)
		ents[idx].node = child
		return &pnode[V]{bitmap: nd.bitmap, entries: ents}, added
	}
	if e.key == key {
		ents := cloneEntries(nd.entries)
		ents[idx].val = val
		return &pnode[V]{bitmap: nd.bitmap, entries: ents}, false
	}
	// Two distinct keys share this slot: push both one level down. Distinct
	// 32-bit keys must diverge by shift 30, so the recursion terminates.
	ents := cloneEntries(nd.entries)
	ents[idx] = pentry[V]{node: pnodeTwo(e.key, e.val, key, val, shift+pmBits)}
	return &pnode[V]{bitmap: nd.bitmap, entries: ents}, true
}

// pnodeTwo builds the minimal subtree holding two distinct keys starting at
// shift.
func pnodeTwo[V any](k1 ID, v1 V, k2 ID, v2 V, shift uint) *pnode[V] {
	s1 := (k1 >> shift) & pmMask
	s2 := (k2 >> shift) & pmMask
	if s1 == s2 {
		child := pnodeTwo(k1, v1, k2, v2, shift+pmBits)
		return &pnode[V]{bitmap: 1 << s1, entries: []pentry[V]{{node: child}}}
	}
	e1 := pentry[V]{key: k1, val: v1}
	e2 := pentry[V]{key: k2, val: v2}
	if s1 > s2 {
		e1, e2 = e2, e1
	}
	return &pnode[V]{bitmap: 1<<s1 | 1<<s2, entries: []pentry[V]{e1, e2}}
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

// l2 is one top-level branch of a triple index: the two inner levels plus
// the number of triples beneath this branch. That count is the per-position
// cardinality (triples per bound subject/predicate/object) the planner reads
// through EstimateIDs in O(1); keeping it inside the immutable branch means
// every pinned version carries its own consistent statistics.
type l2 struct {
	m    *pmap[*pmap[unit]]
	size int
}

// tindex is a persistent three-level triple index (e.g. S→P→O). The zero
// value is the empty index.
type tindex struct {
	m *pmap[*l2]
}

func (ix tindex) has(a, b, c ID) bool {
	br, ok := ix.m.Get(a)
	if !ok {
		return false
	}
	inner, ok := br.m.Get(b)
	if !ok {
		return false
	}
	_, ok = inner.Get(c)
	return ok
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
	inner, _ := br.m.Get(b)
	return inner.Len()
}

// keys returns the number of distinct top-level keys.
func (ix tindex) keys() int { return ix.m.Len() }

// with returns the index with (a, b, c) present; added reports whether the
// triple was new. The receiver is unchanged.
func (ix tindex) with(a, b, c ID) (tindex, bool) {
	var bm *pmap[*pmap[unit]]
	sz := 0
	if br, ok := ix.m.Get(a); ok {
		bm, sz = br.m, br.size
	}
	inner, _ := bm.Get(b)
	ni, added := inner.With(c, unit{})
	if !added {
		return ix, false
	}
	nbm, _ := bm.With(b, ni)
	nm, _ := ix.m.With(a, &l2{m: nbm, size: sz + 1})
	return tindex{m: nm}, true
}

// without returns the index with (a, b, c) removed; removed reports whether
// it was present. Empty branches are dropped so key counts stay exact.
func (ix tindex) without(a, b, c ID) (tindex, bool) {
	br, ok := ix.m.Get(a)
	if !ok {
		return ix, false
	}
	inner, ok := br.m.Get(b)
	if !ok {
		return ix, false
	}
	ni, removed := inner.Without(c)
	if !removed {
		return ix, false
	}
	if br.size == 1 {
		nm, _ := ix.m.Without(a)
		return tindex{m: nm}, true
	}
	var nbm *pmap[*pmap[unit]]
	if ni == nil {
		nbm, _ = br.m.Without(b)
	} else {
		nbm, _ = br.m.With(b, ni)
	}
	nm, _ := ix.m.With(a, &l2{m: nbm, size: br.size - 1})
	return tindex{m: nm}, true
}

// ---- Bulk construction --------------------------------------------------------

// pmapOf builds the map holding es, whose keys must be distinct, in one pass:
// every node is allocated once, at its final size, where inserting the keys
// one by one would path-copy the trie once per key. The result has the shape
// insertion would have produced (a key sits as high as it can without sharing
// a slot). es is permuted in place.
func pmapOf[V any](es []pentry[V]) *pmap[V] {
	if len(es) == 0 {
		return nil
	}
	return &pmap[V]{root: pnodeOf(es, make([]pentry[V], len(es)), 0), n: len(es)}
}

// pnodeOf builds the node for es (non-empty, distinct keys) at shift, using
// tmp (same length) as scratch for the counting sort by slot.
func pnodeOf[V any](es, tmp []pentry[V], shift uint) *pnode[V] {
	var start [pmFanout + 1]int
	for i := range es {
		start[(es[i].key>>shift)&pmMask+1]++
	}
	nd := &pnode[V]{}
	used := 0
	for s := 0; s < pmFanout; s++ {
		if start[s+1] > 0 {
			nd.bitmap |= 1 << s
			used++
		}
		start[s+1] += start[s]
	}
	next := start
	for i := range es {
		s := (es[i].key >> shift) & pmMask
		tmp[next[s]] = es[i]
		next[s]++
	}
	copy(es, tmp)
	nd.entries = make([]pentry[V], 0, used)
	for s := 0; s < pmFanout; s++ {
		switch lo, hi := start[s], start[s+1]; hi - lo {
		case 0:
		case 1:
			nd.entries = append(nd.entries, es[lo])
		default:
			nd.entries = append(nd.entries, pentry[V]{node: pnodeOf(es[lo:hi], tmp[lo:hi], shift+pmBits)})
		}
	}
	return nd
}

// tindexOf builds the index holding ts — (a, b, c) key triples, sorted and
// distinct — bottom-up with pmapOf (which copies the entries it is given, so
// the two inner buffers are reused from run to run).
func tindexOf(ts [][3]ID) tindex {
	var (
		top    []pentry[*l2]
		mid    []pentry[*pmap[unit]]
		leaves []pentry[unit]
	)
	for i := 0; i < len(ts); {
		a := ts[i][0]
		mid = mid[:0]
		from := i
		for i < len(ts) && ts[i][0] == a {
			b := ts[i][1]
			leaves = leaves[:0]
			for ; i < len(ts) && ts[i][0] == a && ts[i][1] == b; i++ {
				leaves = append(leaves, pentry[unit]{key: ts[i][2]})
			}
			mid = append(mid, pentry[*pmap[unit]]{key: b, val: pmapOf(leaves)})
		}
		top = append(top, pentry[*l2]{key: a, val: &l2{m: pmapOf(mid), size: i - from}})
	}
	return tindex{m: pmapOf(top)}
}
