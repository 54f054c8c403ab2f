package store

import (
	"fmt"
	"slices"
)

// This file holds the layout of one triple index in a version: immutable,
// pointer-free bases of sorted key arrays, shared by every version since the
// last fold, under a small persistent delta (tindex, see pmap.go) of the
// triples this version adds to the bases and the base triples it lacks.
//
// Every level of a base is sorted in trie order — the order in which
// pmap.Range visits keys — so a walk that merges bases and delta visits the
// matches of a pattern in exactly the order a version held wholly in pmaps
// visits them. Row order is part of every answer the server gives, and it
// stays what it was whatever the split between bases and delta.

// compactShare sets when a delta is folded into its bases: once it holds
// more than one triple for every compactShare triples of the bases. Measured
// on the read_churn and write_durable workloads (see DESIGN.md §3.4).
const compactShare = 16

// runShare bounds a run (see xindex) at one triple for every runShare
// triples of its base. A fork that only adds — the reasoner's closure over a
// data version, a quarter of the data's size on the paper's scenario — folds
// its adds into a run and keeps sharing the data's base instead of copying
// it.
const runShare = 2

// okey returns id's trie-order key: its 5-bit digits taken from the least
// significant end, read most significant first. A pmap slots a key by those
// digits in that order, so pmap.Range visits keys in ascending okey order.
// A base stores okeys, so that ordering them is comparing numbers.
func okey(id ID) uint32 {
	x := uint32(id)
	return (x&pmMask)<<27 | (x>>5&pmMask)<<22 | (x>>10&pmMask)<<17 |
		(x>>15&pmMask)<<12 | (x>>20&pmMask)<<7 | (x>>25&pmMask)<<2 | x>>30
}

// idOf is the inverse of okey.
func idOf(k uint32) ID {
	return ID(k>>27 | (k>>22&pmMask)<<5 | (k>>17&pmMask)<<10 |
		(k>>12&pmMask)<<15 | (k>>7&pmMask)<<20 | (k>>2&pmMask)<<25 | (k&3)<<30)
}

// okeys returns the okeys of a key triple.
func okeys(t [3]ID) [3]uint32 { return [3]uint32{okey(t[0]), okey(t[1]), okey(t[2])} }

// sortKeys sorts and deduplicates triples of okeys, which puts them in trie
// order.
func sortKeys(ks [][3]uint32) [][3]uint32 {
	slices.SortFunc(ks, func(x, y [3]uint32) int { return slices.Compare(x[:], y[:]) })
	return slices.Compact(ks)
}

// search returns where k is, or would go, in keys.
func search(keys []uint32, k uint32) (int, bool) { return slices.BinarySearch(keys, k) }

// cindex is one base of a triple index (e.g. S→P→O): its three levels as
// sorted arrays of okeys with offsets (compressed sparse rows). The second
// keys under top[i] are mid[topOff[i]:topOff[i+1]], and the third keys under
// mid[j] are low[midOff[j]:midOff[j+1]]; no group is empty, and each group
// ascends. Holding no pointers, it costs the garbage collector nothing to
// keep. A nil *cindex is the empty base.
type cindex struct {
	top, mid, low  []uint32
	topOff, midOff []uint32
	// at maps a first key's ID to its row of top plus one (zero where the
	// ID is not a first key), when the first keys are dense enough among
	// the IDs below the largest of them — one in four — that the table costs
	// at most 16 bytes per key. A probe is then one load, not a search.
	at []uint32
}

// buildCindex returns the base holding ks: distinct okey triples in trie
// order.
func buildCindex(ks [][3]uint32) *cindex {
	if len(ks) == 0 {
		return nil
	}
	nTop, nMid := 0, 0
	for i, k := range ks {
		if i == 0 || k[0] != ks[i-1][0] {
			nTop++
			nMid++
		} else if k[1] != ks[i-1][1] {
			nMid++
		}
	}
	c := &cindex{
		top: make([]uint32, 0, nTop), topOff: make([]uint32, 0, nTop+1),
		mid: make([]uint32, 0, nMid), midOff: make([]uint32, 0, nMid+1),
		low: make([]uint32, len(ks)),
	}
	for i, k := range ks {
		newTop := i == 0 || k[0] != ks[i-1][0]
		if newTop {
			c.top = append(c.top, k[0])
			c.topOff = append(c.topOff, uint32(len(c.mid)))
		}
		if newTop || k[1] != ks[i-1][1] {
			c.mid = append(c.mid, k[1])
			c.midOff = append(c.midOff, uint32(i))
		}
		c.low[i] = k[2]
	}
	c.topOff = append(c.topOff, uint32(len(c.mid)))
	c.midOff = append(c.midOff, uint32(len(ks)))
	var last ID
	for _, k := range c.top {
		last = max(last, idOf(k))
	}
	if int(last) < 4*len(c.top) {
		c.at = make([]uint32, last+1)
		for i, k := range c.top {
			c.at[idOf(k)] = uint32(i + 1)
		}
	}
	return c
}

// len returns the number of triples in the base.
func (c *cindex) len() int {
	if c == nil {
		return 0
	}
	return len(c.low)
}

// branch returns the rows of mid under a, empty when a is absent.
func (c *cindex) branch(a ID) (lo, hi int) {
	if c == nil {
		return 0, 0
	}
	var i int
	if c.at != nil {
		if int(a) >= len(c.at) || c.at[a] == 0 {
			return 0, 0
		}
		i = int(c.at[a]) - 1
	} else if j, ok := search(c.top, okey(a)); ok {
		i = j
	} else {
		return 0, 0
	}
	return int(c.topOff[i]), int(c.topOff[i+1])
}

// pair returns the rows of low under (a, b), empty when the pair is absent.
func (c *cindex) pair(a, b ID) (lo, hi int) {
	lo, hi = c.branch(a)
	if lo == hi {
		return 0, 0
	}
	j, ok := search(c.mid[lo:hi], okey(b))
	if !ok {
		return 0, 0
	}
	j += lo
	return int(c.midOff[j]), int(c.midOff[j+1])
}

func (c *cindex) has(a, b, x ID) bool {
	lo, hi := c.pair(a, b)
	if lo == hi {
		return false
	}
	_, ok := search(c.low[lo:hi], okey(x))
	return ok
}

// card returns the number of triples under a.
func (c *cindex) card(a ID) int {
	lo, hi := c.branch(a)
	if lo == hi {
		return 0
	}
	return int(c.midOff[hi] - c.midOff[lo])
}

// card2 returns the number of triples under (a, b).
func (c *cindex) card2(a, b ID) int {
	lo, hi := c.pair(a, b)
	return hi - lo
}

// under returns the rows of mid under top row i.
func (c *cindex) under(i int) [2]int { return [2]int{int(c.topOff[i]), int(c.topOff[i+1])} }

// lowOf returns the third keys under mid row j.
func (c *cindex) lowOf(j int) []uint32 { return c.low[c.midOff[j]:c.midOff[j+1]] }

// tops and mids return the first and second keys of the base, nil for the
// empty base.
func (c *cindex) tops() []uint32 {
	if c == nil {
		return nil
	}
	return c.top
}

func (c *cindex) mids() []uint32 {
	if c == nil {
		return nil
	}
	return c.mid
}

// shape returns an error naming the first group that is empty or out of
// order, or an offset that points outside its level.
func (c *cindex) shape() error {
	if c == nil {
		return nil
	}
	level := func(name string, keys, off []uint32, below int) error {
		if len(off) != len(keys)+1 || off[0] != 0 || int(off[len(keys)]) != below {
			return fmt.Errorf("base %s: %d offsets for %d keys over %d rows", name, len(off), len(keys), below)
		}
		for i := range keys {
			if off[i] >= off[i+1] {
				return fmt.Errorf("base %s: empty group under key %d", name, idOf(keys[i]))
			}
		}
		return nil
	}
	if err := level("top", c.top, c.topOff, len(c.mid)); err != nil {
		return err
	}
	if err := level("mid", c.mid, c.midOff, len(c.low)); err != nil {
		return err
	}
	ascends := func(keys []uint32) bool {
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if !ascends(c.top) {
		return fmt.Errorf("base top keys out of trie order")
	}
	if c.at != nil {
		rows := 0
		for id, row := range c.at {
			if row != 0 && (int(row) > len(c.top) || c.top[row-1] != okey(ID(id))) {
				return fmt.Errorf("base maps id %d to top row %d", id, int(row)-1)
			}
			rows += min(int(row), 1)
		}
		if rows != len(c.top) {
			return fmt.Errorf("base maps %d ids to its %d top rows", rows, len(c.top))
		}
	}
	for i := range c.top {
		if !ascends(c.mid[c.topOff[i]:c.topOff[i+1]]) {
			return fmt.Errorf("base second keys under %d out of trie order", idOf(c.top[i]))
		}
	}
	for j := range c.mid {
		if !ascends(c.lowOf(j)) {
			return fmt.Errorf("base third keys under row %d out of trie order", j)
		}
	}
	return nil
}

// xindex is one triple index of a version: the bases it shares with every
// version since the last fold, and its delta over them — add holds the
// triples the bases lack, del the triples of the bases this version lacks
// (tombstones). The bases are base itself and run, the adds of earlier folds
// kept apart from base (nil when there were none): disjoint from base, and
// at most 1/runShare of its size. The zero value is the empty index.
type xindex struct {
	base, run *cindex
	add, del  tindex
	// keys is the number of distinct first keys; delta the number of
	// triples in add and del together.
	keys, delta int
}

// newXindex returns the index holding ks — distinct okey triples in trie
// order — as one base with an empty delta.
func newXindex(ks [][3]uint32) xindex {
	c := buildCindex(ks)
	if c == nil {
		return xindex{}
	}
	return xindex{base: c, keys: len(c.top)}
}

// newIndexes returns the SPO, POS and OSP indexes holding the key triples
// ids (in SPO order; duplicates allowed) as bases, and how many distinct
// triples they hold.
func newIndexes(ids [][3]ID) (spo, pos, osp xindex, n int) {
	ks := make([][3]uint32, len(ids))
	for i, t := range ids {
		ks[i] = okeys(t)
	}
	ks = sortKeys(ks)
	var xs [3]xindex
	for r := range xs {
		if r > 0 {
			for i, k := range ks {
				ks[i] = [3]uint32{k[1], k[2], k[0]}
			}
			ks = sortKeys(ks)
		}
		xs[r] = newXindex(ks)
	}
	return xs[0], xs[1], xs[2], len(ks)
}

func (x *xindex) layers() [2]*cindex { return [2]*cindex{x.base, x.run} }

func (x *xindex) has(a, b, c ID) bool {
	if x.add.has(a, b, c) {
		return true
	}
	return (x.base.has(a, b, c) || x.run.has(a, b, c)) && (x.del.m == nil || !x.del.has(a, b, c))
}

// card returns the number of triples under first key a.
func (x *xindex) card(a ID) int {
	return x.base.card(a) + x.run.card(a) + x.add.card(a) - x.del.card(a)
}

// card2 returns the number of triples under (a, b).
func (x *xindex) card2(a, b ID) int {
	return x.base.card2(a, b) + x.run.card2(a, b) + x.add.card2(a, b) - x.del.card2(a, b)
}

// due reports whether the delta has outgrown its share of the bases.
func (x *xindex) due() bool { return x.delta > (x.base.len()+x.run.len())/compactShare }

// fold returns the index, of size triples, with its delta folded into its
// bases; the old bases stay as they are for every version that holds them. A
// delta of adds alone goes into the run while that stays within its share of
// the base, and the base is kept; any other fold makes one new base.
func (x *xindex) fold(size int) xindex {
	if x.del.m == nil && x.run.len()+x.delta <= x.base.len()/runShare {
		up := xindex{base: x.run, add: x.add}
		return xindex{base: x.base, run: buildCindex(up.keyTriples(x.run.len() + x.delta)), keys: x.keys}
	}
	return xindex{base: buildCindex(x.keyTriples(size)), keys: x.keys}
}

// keyTriples returns the okey triples of the index, n of them, in trie
// order.
func (x *xindex) keyTriples(n int) [][3]uint32 {
	ks := make([][3]uint32, 0, n)
	x.each(func(a, b, c ID) bool {
		ks = append(ks, okeys([3]ID{a, b, c}))
		return true
	})
	return ks
}

// with returns the index with ts added: distinct key triples, grouped by
// first and then second key, none of them present. A triple of the bases
// loses its tombstone; any other joins add.
func (x xindex) with(ts [][3]ID) xindex {
	for i := 0; i < len(ts); {
		a := ts[i][0]
		if x.card(a) == 0 {
			x.keys++
		}
		for i < len(ts) && ts[i][0] == a {
			i++
		}
	}
	adds := ts
	if x.del.m != nil {
		adds = nil
		for _, t := range ts {
			if x.base.has(t[0], t[1], t[2]) || x.run.has(t[0], t[1], t[2]) {
				x.del, _ = x.del.without(t[0], t[1], t[2])
				x.delta--
			} else {
				adds = append(adds, t)
			}
		}
	}
	x.add, _ = x.add.withAll(adds)
	x.delta += len(adds)
	return x
}

// without returns the index with the present triple (a, b, c) removed: taken
// out of add, or tombstoned in del.
func (x xindex) without(a, b, c ID) xindex {
	if nadd, removed := x.add.without(a, b, c); removed {
		x.add = nadd
		x.delta--
	} else {
		x.del, _ = x.del.withAll([][3]ID{{a, b, c}})
		x.delta++
	}
	if x.card(a) == 0 {
		x.keys--
	}
	return x
}

// cursor walks one level of the two bases in step: keys[r] holds a level of
// base r, of which rows [i[r], end[r]) are left.
type cursor struct {
	keys   [2][]uint32
	i, end [2]int
}

// peek returns the next key, if any is left.
func (c *cursor) peek() (uint32, bool) {
	var k uint32
	found := false
	for r := range c.keys {
		if c.i[r] < c.end[r] {
			if x := c.keys[r][c.i[r]]; !found || x < k {
				k, found = x, true
			}
		}
	}
	return k, found
}

// pop consumes the next key, returning its row in each base (-1 where the
// base lacks it).
func (c *cursor) pop() [2]int {
	k, _ := c.peek()
	rows := [2]int{-1, -1}
	for r := range c.keys {
		if c.i[r] < c.end[r] && c.keys[r][c.i[r]] == k {
			rows[r] = c.i[r]
			c.i[r]++
		}
	}
	return rows
}

// merge calls row, in trie order, once for every key of cur and of add:
// with the key's rows in the bases, and its value in add when added is true.
// The calls are all static, so no closure of a walk escapes to the heap.
func merge[V any](cur *cursor, add *pmap[V], row func(k ID, rows [2]int, v V, added bool) bool) bool {
	var none V
	upto := func(k uint32, all bool) bool {
		for {
			b, ok := cur.peek()
			if !ok || !all && b >= k {
				return true
			}
			if !row(idOf(b), cur.pop(), none, false) {
				return false
			}
		}
	}
	return add.Range(func(k ID, v V) bool {
		ok := okey(k)
		if !upto(ok, false) {
			return false
		}
		rows := [2]int{-1, -1}
		if b, more := cur.peek(); more && b == ok {
			rows = cur.pop()
		}
		return row(k, rows, v, true)
	}) && upto(0, true)
}

// each calls fn for every triple until fn returns false, in trie order; the
// return value reports whether iteration ran to completion.
func (x *xindex) each(fn func(a, b, c ID) bool) bool {
	ls := x.layers()
	cur := cursor{keys: [2][]uint32{ls[0].tops(), ls[1].tops()}}
	cur.end = [2]int{len(cur.keys[0]), len(cur.keys[1])}
	return merge(&cur, x.add.m, func(a ID, rows [2]int, ab *l2, _ bool) bool {
		var spans [2][2]int
		for r, i := range rows {
			if i >= 0 {
				spans[r] = ls[r].under(i)
			}
		}
		db, _ := x.del.m.Get(a)
		return x.walkBranch(spans, ab, db, func(b, c ID) bool { return fn(a, b, c) })
	})
}

// firsts calls fn for every first key until fn returns false, in trie
// order.
func (x *xindex) firsts(fn func(ID) bool) bool {
	ls := x.layers()
	cur := cursor{keys: [2][]uint32{ls[0].tops(), ls[1].tops()}}
	cur.end = [2]int{len(cur.keys[0]), len(cur.keys[1])}
	return merge(&cur, x.add.m, func(a ID, _ [2]int, _ *l2, added bool) bool {
		return !added && x.del.m != nil && x.card(a) == 0 || fn(a)
	})
}

// eachUnder calls fn for every (b, c) under first key a until fn returns
// false, in trie order.
func (x *xindex) eachUnder(a ID, fn func(b, c ID) bool) bool {
	var spans [2][2]int
	spans[0][0], spans[0][1] = x.base.branch(a)
	spans[1][0], spans[1][1] = x.run.branch(a)
	ab, _ := x.add.m.Get(a)
	db, _ := x.del.m.Get(a)
	return x.walkBranch(spans, ab, db, fn)
}

// eachPair calls fn for every third key under (a, b) until fn returns false,
// in trie order.
func (x *xindex) eachPair(a, b ID, fn func(c ID) bool) bool {
	var lows [2][]uint32
	for r, c := range x.layers() {
		if lo, hi := c.pair(a, b); lo < hi {
			lows[r] = c.low[lo:hi]
		}
	}
	var al, dl leaf
	var aok, dok bool
	if br, ok := x.add.m.Get(a); ok {
		al, aok = br.m.Get(b)
	}
	if br, ok := x.del.m.Get(a); ok {
		dl, dok = br.m.Get(b)
	}
	return mergeLow(lows, al, aok, dl, dok, fn)
}

// walkBranch calls fn for every (b, c) under one first key: the rows
// spans[r] of the second level of base r, less the tombstones of db, merged
// with the add branch ab (db and ab nil when the delta holds nothing under
// the key).
func (x *xindex) walkBranch(spans [2][2]int, ab, db *l2, fn func(b, c ID) bool) bool {
	ls := x.layers()
	if ab == nil && db == nil && (spans[0][0] == spans[0][1] || spans[1][0] == spans[1][1]) {
		r := 0
		if spans[0][0] == spans[0][1] {
			r = 1
		}
		for j := spans[r][0]; j < spans[r][1]; j++ {
			b := idOf(ls[r].mid[j])
			for _, c := range ls[r].lowOf(j) {
				if !fn(b, idOf(c)) {
					return false
				}
			}
		}
		return true
	}
	cur := cursor{keys: [2][]uint32{ls[0].mids(), ls[1].mids()}}
	cur.i = [2]int{spans[0][0], spans[1][0]}
	cur.end = [2]int{spans[0][1], spans[1][1]}
	var add *pmap[leaf]
	if ab != nil {
		add = ab.m
	}
	return merge(&cur, add, func(b ID, rows [2]int, al leaf, added bool) bool {
		var lows [2][]uint32
		for r, j := range rows {
			if j >= 0 {
				lows[r] = ls[r].lowOf(j)
			}
		}
		var dl leaf
		dok := false
		if db != nil {
			dl, dok = db.m.Get(b)
		}
		return mergeLow(lows, al, added, dl, dok, func(c ID) bool { return fn(b, c) })
	})
}

// mergeLow calls fn, in trie order, for every key of the base groups lows
// that the tombstones dl do not name, and every added key of al — none when
// aok or dok is false.
func mergeLow(lows [2][]uint32, al leaf, aok bool, dl leaf, dok bool, fn func(ID) bool) bool {
	if !aok && !dok && (len(lows[0]) == 0 || len(lows[1]) == 0) {
		for _, low := range lows {
			for _, c := range low {
				if !fn(idOf(c)) {
					return false
				}
			}
		}
		return true
	}
	cur := cursor{keys: lows, end: [2]int{len(lows[0]), len(lows[1])}}
	row := func(c ID, _ [2]int, _ unit, added bool) bool {
		if !added && dok && dl.has(c) {
			return true
		}
		return fn(c)
	}
	if aok && al.set == nil {
		// A lone added key: the bases' keys before it, it, and the rest.
		for k, ok := cur.peek(); ok && k < okey(al.one); k, ok = cur.peek() {
			if !row(idOf(k), cur.pop(), unit{}, false) {
				return false
			}
		}
		return fn(al.one) && merge(&cur, nil, row)
	}
	var add *pmap[unit]
	if aok {
		add = al.set
	}
	return merge(&cur, add, row)
}

// shape returns the number of triples in the index, or an error naming the
// first way in which it breaks its invariants: a malformed base or delta, a
// run that shares a triple with its base or outgrows it, an added triple a
// base holds, a tombstone for a triple neither holds, or a key or delta
// count that disagrees with the triples.
func (x *xindex) shape() (int, error) {
	if err := x.base.shape(); err != nil {
		return 0, err
	}
	if err := x.run.shape(); err != nil {
		return 0, fmt.Errorf("run: %w", err)
	}
	if x.run.len() > x.base.len()/runShare {
		return 0, fmt.Errorf("run of %d triples over a base of %d", x.run.len(), x.base.len())
	}
	adds, err := x.add.shape()
	if err != nil {
		return 0, fmt.Errorf("delta adds: %w", err)
	}
	dels, err := x.del.shape()
	if err != nil {
		return 0, fmt.Errorf("delta tombstones: %w", err)
	}
	if adds+dels != x.delta {
		return 0, fmt.Errorf("delta of %d triples counted as %d", adds+dels, x.delta)
	}
	if run := (xindex{base: x.run}); !run.each(func(a, b, c ID) bool {
		err = fmt.Errorf("run triple %d %d %d is in the base", a, b, c)
		return !x.base.has(a, b, c)
	}) {
		return 0, err
	}
	inBase := func(a, b, c ID) bool { return x.base.has(a, b, c) || x.run.has(a, b, c) }
	for _, d := range []struct {
		ix   tindex
		want bool
		what string
	}{{x.add, false, "added triple %d %d %d is in a base"}, {x.del, true, "tombstone %d %d %d is in no base"}} {
		if !(&xindex{add: d.ix}).each(func(a, b, c ID) bool {
			err = fmt.Errorf(d.what, a, b, c)
			return inBase(a, b, c) == d.want
		}) {
			return 0, err
		}
	}
	keys := 0
	x.firsts(func(ID) bool { keys++; return true })
	if keys != x.keys {
		return 0, fmt.Errorf("%d first keys counted as %d", keys, x.keys)
	}
	return x.base.len() + x.run.len() + adds - dels, nil
}
