package store

import (
	"math/bits"
	"slices"
)

// ChangedSubjects calls fn with the ID of every subject whose set of triples
// in sv differs from its set in base — present in one and absent from the
// other, or present in both with different (predicate, object) pairs — until
// fn returns false. Both views must be of the same store (or of snapshots
// sharing its dictionary), so that an ID names the same term in both. Each
// subject is reported once; order is unspecified.
//
// Between versions that share their SPO bases — no fold lies between them —
// a subject's triples differ exactly where its adds or its tombstones
// do, so the walk runs over the two pairs of deltas in lockstep and prunes
// wherever they share a node: path-copying leaves every subtree a commit did
// not touch pointer-identical, so the cost is O(changed subjects × trie depth)
// however large the store is, and however many commits lie between the two
// versions. A subject whose branch was rewritten to the same content (removed
// and re-added) is compared by content and not reported. Across a fold the
// two versions' subjects are walked in full, in trie order.
func (sv StoreView) ChangedSubjects(base StoreView, fn func(ID) bool) {
	x, y := &base.ver().spo, &sv.ver().spo
	if x.base != y.base || x.run != y.run {
		diffWalk(x, y, fn)
		return
	}
	addSame, delSame := x.add.m == y.add.m, x.del.m == y.del.m
	switch {
	case addSame && delSame:
	case delSame:
		diffNodes(rootOf(x.add.m), rootOf(y.add.m), sameBranch, fn)
	case addSame:
		diffNodes(rootOf(x.del.m), rootOf(y.del.m), sameBranch, fn)
	default:
		// A subject can differ in both its adds and its tombstones.
		seen := map[ID]bool{}
		if diffNodes(rootOf(x.add.m), rootOf(y.add.m), sameBranch, func(id ID) bool {
			seen[id] = true
			return fn(id)
		}) {
			diffNodes(rootOf(x.del.m), rootOf(y.del.m), sameBranch, func(id ID) bool {
				return seen[id] || fn(id)
			})
		}
	}
}

// diffWalk is ChangedSubjects for two indexes over different bases: it
// merges their subjects in trie order and compares the (predicate, object)
// pairs of every subject both hold, pair by pair — equal sets walk in the
// same order.
func diffWalk(x, y *xindex, fn func(ID) bool) {
	xs, ys := subjectsOf(x), subjectsOf(y)
	var xp, yp [][2]ID
	pairs := func(ix *xindex, a ID, buf [][2]ID) [][2]ID {
		buf = buf[:0]
		ix.eachUnder(a, func(b, c ID) bool {
			buf = append(buf, [2]ID{b, c})
			return true
		})
		return buf
	}
	i, j := 0, 0
	for i < len(xs) || j < len(ys) {
		var a ID
		switch {
		case j == len(ys) || i < len(xs) && okey(xs[i]) < okey(ys[j]):
			a = xs[i]
			i++
		case i == len(xs) || okey(ys[j]) < okey(xs[i]):
			a = ys[j]
			j++
		default:
			a = xs[i]
			i++
			j++
			if xp, yp = pairs(x, a, xp), pairs(y, a, yp); slices.Equal(xp, yp) {
				continue
			}
		}
		if !fn(a) {
			return
		}
	}
}

// subjectsOf returns the first keys of ix in trie order.
func subjectsOf(ix *xindex) []ID {
	out := make([]ID, 0, ix.keys)
	ix.firsts(func(a ID) bool {
		out = append(out, a)
		return true
	})
	return out
}

func rootOf[V any](m *pmap[V]) *pnode[V] {
	if m == nil {
		return nil
	}
	return m.root
}

// sameBranch reports whether two subject branches hold the same triples.
func sameBranch(x, y *l2) bool {
	if x == y {
		return true
	}
	if x.size != y.size || x.m.Len() != y.m.Len() {
		return false
	}
	return diffNodes(rootOf(x.m), rootOf(y.m), sameLeaf, func(ID) bool { return false })
}

// sameLeaf reports whether two object leaves hold the same keys. A lone key
// and a set never do, since a set holds at least two.
func sameLeaf(x, y leaf) bool {
	if x.set == nil || y.set == nil {
		return x == y
	}
	return sameSet(x.set, y.set)
}

// sameSet reports whether two object sets are equal.
func sameSet(x, y *pmap[unit]) bool {
	if x == y {
		return true
	}
	if x.Len() != y.Len() {
		return false
	}
	return diffNodes(rootOf(x), rootOf(y), func(unit, unit) bool { return true }, func(ID) bool { return false })
}

// diffNodes calls fn for every key bound under exactly one of the two nodes,
// or under both to values for which same reports false. It returns false as
// soon as fn does. a and b must sit at the same depth of their tries, which
// makes their slots line up; a key may still be a leaf on one side and inside
// a subtree on the other (a neighbour was added or removed), so shapes are
// not assumed to agree.
func diffNodes[V any](a, b *pnode[V], same func(x, y V) bool, fn func(ID) bool) bool {
	if a == b {
		return true
	}
	emit := func(k ID, _ V) bool { return fn(k) }
	if a == nil {
		return pnodeRange(b, emit)
	}
	if b == nil {
		return pnodeRange(a, emit)
	}
	for rest := a.bitmap | b.bitmap; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		ea, eb := a.slot(bit), b.slot(bit)
		var ok bool
		switch {
		case ea == nil:
			ok = rangeEntry(eb, emit)
		case eb == nil:
			ok = rangeEntry(ea, emit)
		case ea.node != nil && eb.node != nil:
			ok = diffNodes(ea.node, eb.node, same, fn)
		case ea.node != nil:
			ok = diffLeaf(eb, ea.node, same, fn)
		case eb.node != nil:
			ok = diffLeaf(ea, eb.node, same, fn)
		case ea.key != eb.key:
			ok = fn(ea.key) && fn(eb.key)
		default:
			ok = same(ea.val, eb.val) || fn(ea.key)
		}
		if !ok {
			return false
		}
	}
	return true
}

// diffLeaf is diffNodes for a single leaf against a subtree on the other side.
func diffLeaf[V any](leaf *pentry[V], tree *pnode[V], same func(x, y V) bool, fn func(ID) bool) bool {
	found := false
	ok := pnodeRange(tree, func(k ID, v V) bool {
		if k == leaf.key {
			found = true
			if same(leaf.val, v) {
				return true
			}
		}
		return fn(k)
	})
	if ok && !found {
		ok = fn(leaf.key)
	}
	return ok
}

// slot returns the entry occupying the slot whose bitmap bit is bit, or nil.
func (nd *pnode[V]) slot(bit uint32) *pentry[V] {
	if nd.bitmap&bit == 0 {
		return nil
	}
	return &nd.entries[bits.OnesCount32(nd.bitmap&(bit-1))]
}

func rangeEntry[V any](e *pentry[V], fn func(ID, V) bool) bool {
	if e.node != nil {
		return pnodeRange(e.node, fn)
	}
	return fn(e.key, e.val)
}
