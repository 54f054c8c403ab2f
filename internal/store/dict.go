package store

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// ID is a dense dictionary identifier for an interned term. IDs start at 1;
// NoID (0) is reserved and doubles as the wildcard in the ID-level match API.
type ID uint32

// NoID is the zero ID: "no term" on writes, wildcard on ID-level reads.
const NoID ID = 0

// dictStripes is the number of lock stripes in a pool's index (power of two).
const dictStripes = 64

// Dict is a two-way interning dictionary mapping RDF terms to dense uint32
// IDs and back. It is a numbering over a term pool: the pool holds each
// distinct term once, and the Dict holds two pointer-free arrays, ID → pool
// number and pool number → ID. NewDict makes a dictionary over a pool of its
// own; NewDictOver makes one over another dictionary's pool, so a role view
// numbers the data's terms instead of copying them (its IDs are still its
// own, dense and in its own first-intern order).
//
// A Dict only grows, and so does its pool: removing a triple from a store does
// not un-intern its terms. That is the standard trade-off of
// dictionary-encoded stores — IDs stay stable for the life of the dictionary,
// so indexes, caches and query plans can hold them without invalidation
// protocols.
type Dict struct {
	pool *pool

	mu  sync.Mutex        // serializes interning a term new here
	ids published[uint32] // ids[id-1] is id's pool number
	// num[n] is pool number n's ID here, 0 when the Dict lacks it. Its
	// entries are read and written with atomic.LoadUint32/StoreUint32, not
	// typed atomics, because growing the array copies them.
	num atomic.Pointer[[]uint32]
}

// pool is the terms a family of dictionaries shares. The term → number index
// is striped by rdf.HashTerm so concurrent interning from many goroutines
// contends on different stripes; the number → term direction is an
// append-only array that readers load without a lock.
type pool struct {
	stripes [dictStripes]poolStripe

	mu    sync.Mutex // serializes add
	terms published[rdf.Term]
}

// published is an append-only array that readers load without a lock: the
// backing array is full length, filled up to n, and an entry is never
// written again once n covers it. The writer serializes add.
type published[T any] struct {
	arr atomic.Pointer[[]T]
	n   atomic.Uint32
}

// all returns the published entries. n is loaded before the array, and add
// stores a grown array before the count that needs it, so every published
// entry is inside the array loaded.
func (p *published[T]) all() []T {
	n := p.n.Load()
	a := p.arr.Load()
	if a == nil {
		return nil
	}
	return (*a)[:n]
}

// add appends v and returns its index; the caller serializes it.
func (p *published[T]) add(v T) uint32 {
	n := p.n.Load()
	var a []T
	if arr := p.arr.Load(); arr != nil {
		a = *arr
	}
	if int(n) == len(a) {
		grown := slices.Grow(a, 1)
		grown = grown[:cap(grown)]
		p.arr.Store(&grown)
		a = grown
	}
	a[n] = v
	p.n.Store(n + 1)
	return n
}

// poolStripe is an open-addressing table of pool numbers, each stored plus
// one so that zero marks an empty slot. It holds no pointers, so the
// collector does not scan it; a probe confirms a candidate with ==.
type poolStripe struct {
	mu    sync.RWMutex
	slots []uint32 // len is zero or a power of two
	used  int
}

// NewDict returns an empty dictionary over a pool of its own.
func NewDict() *Dict { return &Dict{pool: &pool{}} }

// NewDictOver returns an empty dictionary over d's pool. It numbers only what
// is interned into it: a term the pool holds for another dictionary of the
// family neither resolves nor counts here until it is interned here. Its
// pool number → ID array is as long as the highest pool number it holds, so
// a derived dictionary costs 4 bytes for every pool term below that number,
// not only for its own terms.
func NewDictOver(d *Dict) *Dict { return &Dict{pool: d.pool} }

// add appends t and returns its pool number.
func (p *pool) add(t rdf.Term) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.terms.add(t)
}

// slot maps a term hash to its first probe in a table of size slots: the
// stripe takes the hash's low bits, so the slot is taken from the high bits
// of the hash times a large odd constant.
func slot(h uint64, size int) int {
	return int((h * 0x9e3779b97f4a7c15) >> 32 & uint64(size-1))
}

// find returns the pool number of t, whose hash is h; the caller holds the
// stripe's lock.
func (s *poolStripe) find(terms []rdf.Term, t rdf.Term, h uint64) (uint32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := len(s.slots) - 1
	for i := slot(h, len(s.slots)); ; i = (i + 1) & mask {
		n := s.slots[i]
		if n == 0 {
			return 0, false
		}
		if terms[n-1] == t {
			return n - 1, true
		}
	}
}

// insert records pool number n for a term of hash h; the caller holds the
// stripe's write lock and knows the term is absent. The table doubles past
// three quarters full, rehashing its terms from the pool.
func (s *poolStripe) insert(terms []rdf.Term, n uint32, h uint64) {
	if (s.used+1)*4 > len(s.slots)*3 {
		old := s.slots
		s.slots = make([]uint32, max(16, 2*len(old)))
		for _, m := range old {
			if m != 0 {
				s.put(m, rdf.HashTerm(terms[m-1]))
			}
		}
	}
	s.put(n+1, h)
	s.used++
}

func (s *poolStripe) put(stored uint32, h uint64) {
	mask := len(s.slots) - 1
	i := slot(h, len(s.slots))
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = stored
}

// lookup returns the pool number of t, if the pool holds it.
func (p *pool) lookup(t rdf.Term) (uint32, bool) {
	h := rdf.HashTerm(t)
	s := &p.stripes[h%dictStripes]
	s.mu.RLock()
	n, ok := s.find(p.terms.all(), t, h)
	s.mu.RUnlock()
	return n, ok
}

// intern returns the pool number of t, adding t when it is new.
func (p *pool) intern(t rdf.Term) uint32 {
	h := rdf.HashTerm(t)
	s := &p.stripes[h%dictStripes]
	s.mu.RLock()
	n, ok := s.find(p.terms.all(), t, h)
	s.mu.RUnlock()
	if ok {
		return n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok = s.find(p.terms.all(), t, h); ok { // raced with another interner
		return n
	}
	n = p.add(t)
	s.insert(p.terms.all(), n, h)
	return n
}

// id returns pool number n's ID here, NoID when the Dict lacks it.
func (d *Dict) id(n uint32) ID {
	num := d.num.Load()
	if num == nil || int(n) >= len(*num) {
		return NoID
	}
	return ID(atomic.LoadUint32(&(*num)[n]))
}

// Intern returns the ID for t, assigning a fresh one when t is new here.
func (d *Dict) Intern(t rdf.Term) ID {
	n := d.pool.intern(t)
	if id := d.id(n); id != NoID {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.id(n); id != NoID { // raced with another interner
		return id
	}
	// ids is published before num, so an ID that Lookup or Intern hands out
	// resolves through any View taken after.
	id := ID(d.ids.add(n) + 1)
	var num []uint32
	if p := d.num.Load(); p != nil {
		num = *p
	}
	if int(n) >= len(num) {
		// A grown array is published at its full capacity, its zero
		// entries reading as NoID, so the array is stored once per growth.
		grown := slices.Grow(num, int(n)+1-len(num))
		grown = grown[:cap(grown)]
		d.num.Store(&grown)
		num = grown
	}
	atomic.StoreUint32(&num[n], uint32(id))
	return id
}

// Lookup returns the ID for t without interning; ok is false when t has
// never been interned into this dictionary.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	n, ok := d.pool.lookup(t)
	if !ok {
		return NoID, false
	}
	id := d.id(n)
	return id, id != NoID
}

// Term returns the term for id, or nil for NoID and out-of-range IDs.
func (d *Dict) Term(id ID) rdf.Term { return d.View().Term(id) }

// Len returns the number of interned terms.
func (d *Dict) Len() int { return int(d.ids.n.Load()) }

// View captures a read-only snapshot of the ID→term mapping. Both arrays are
// append-only and entries are immutable once published, so a view taken at
// time T resolves every ID interned before T without further locking — the
// evaluator grabs one view per BGP and materializes solutions through it.
// The pool's terms are loaded after the numbering, so they cover it.
func (d *Dict) View() DictView {
	ids := d.ids.all()
	return DictView{ids: ids, terms: d.pool.terms.all()}
}

// DictView is a lock-free resolver over a Dict snapshot (see Dict.View).
type DictView struct {
	ids   []uint32
	terms []rdf.Term
}

// Len returns the number of terms resolvable through the view.
func (v DictView) Len() int { return len(v.ids) }

// Term resolves id, or nil for NoID and IDs interned after the view was
// taken.
func (v DictView) Term(id ID) rdf.Term {
	if id == NoID || int(id) > len(v.ids) {
		return nil
	}
	return v.terms[v.ids[id-1]]
}
