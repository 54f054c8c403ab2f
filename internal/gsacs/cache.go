package gsacs

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/sparql"
	"repro/internal/store"
)

// QueryCache is the Fig. 3 performance optimizer: "in many systems, the same
// queries tend to occur frequently and as a result, having a caching
// mechanism that stores the queries and corresponding answers would provide
// a significant performance boost."
//
// An entry is a role view together with the version of the data it is a view
// of. A lookup is a hit when that version is still the store's current one.
// When it is not, the entry is not thrown away: it stays as the base the next
// reader patches forward from the MVCC diff (see patchView), so a write costs
// the reads after it what it changed, not a rebuild. Refreshes of one key are
// single-flight — the first reader to miss does the work, the rest wait for
// it and share the result. Eviction is LRU.
//
// The cache distinguishes the miss causes operators need to tell apart: cold
// misses (key never seen / evicted) versus stale invalidations (key present
// but reflecting an older data generation), and for the work a miss caused,
// patches versus full rebuilds. A cache with a high rebuild rate under
// writes is one whose writes are too large to patch.
type QueryCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	entries  map[string]*list.Element
	// flights holds the refresh in progress for a key, if any.
	flights map[string]*flight

	hits      uint64
	misses    uint64
	evictions uint64
	stale     uint64
	patches   uint64
	rebuilds  uint64

	// Metric handles (nil-safe no-ops until instrument is called).
	mHits      *obs.Counter
	mMisses    *obs.Counter
	mEvictions *obs.Counter
	mStale     *obs.Counter
	mPatches   *obs.Counter
}

// cacheEntry is one role view and what it is a view of.
type cacheEntry struct {
	key string
	// base is the version of the data the view reflects: view holds exactly
	// the triples buildView yields over base. It is the entry's generation
	// label and the left-hand side of the diff when the entry is patched.
	base store.StoreView
	// reasoner is the reasoner whose decisions the view holds.
	reasoner *Reasoner
	view     *store.Store
	// sparql evaluates queries over view: built once with the entry, shared
	// read-only by every request the entry answers.
	sparql *sparql.Engine
}

// current reports whether the entry answers a read of generation gen judged
// by the reasoner rp points to.
func (ent *cacheEntry) current(gen uint64, rp *Reasoner) bool {
	return ent.base.Generation() == gen && ent.reasoner == rp
}

// flight is one refresh in progress. ent is written by the leader before done
// is closed and stays nil if the refresh panicked.
type flight struct {
	done chan struct{}
	ent  *cacheEntry
}

// refreshOutcome says what work a refresh did, for the cache's accounting.
type refreshOutcome uint8

const (
	// refreshReused: the entry had been made current by an earlier flight.
	refreshReused refreshOutcome = iota
	refreshPatched
	refreshRebuilt
)

// NewQueryCache returns a cache bounded to capacity entries (minimum 1).
func NewQueryCache(capacity int) *QueryCache {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// instrument exports the cache's counters into reg. Call before concurrent
// use (the engine does this at construction).
func (c *QueryCache) instrument(reg *obs.Registry) {
	c.mHits = reg.Counter("grdf_cache_hits_total", "Query cache hits.")
	c.mMisses = reg.Counter("grdf_cache_misses_total",
		"Query cache misses (cold and stale combined).")
	c.mEvictions = reg.Counter("grdf_cache_evictions_total",
		"Entries evicted by LRU capacity pressure.")
	c.mStale = reg.Counter("grdf_cache_stale_invalidations_total",
		"Lookups that found an entry reflecting an older data generation.")
	c.mPatches = reg.Counter("grdf_cache_patches_total",
		"Stale entries made current by patching from the version diff instead of a rebuild.")
	reg.GaugeFunc("grdf_cache_entries", "Entries currently cached.",
		func() float64 { return float64(c.Len()) })
}

// get returns the entry for key when it reflects data generation gen under
// the reasoner rp points to. A stale entry counts as a miss and stays in
// place for refresh to patch.
func (c *QueryCache) get(key string, gen uint64, rp *Reasoner) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		if ent := el.Value.(*cacheEntry); ent.current(gen, rp) {
			c.ll.MoveToFront(el)
			c.hits++
			c.mHits.Inc()
			return ent, true
		}
		c.stale++
		c.mStale.Inc()
	}
	c.misses++
	c.mMisses.Inc()
	return nil, false
}

// refresh makes key's entry current, once however many readers ask at the
// same time: the first caller runs fn with the entry as it stands (nil when
// the key is cold) and publishes what fn returns; callers arriving while it
// runs wait and get the same entry. The result may already be behind the
// store again, or nil if fn panicked — callers check and come back.
func (c *QueryCache) refresh(key string, fn func(prev *cacheEntry) (*cacheEntry, refreshOutcome)) *cacheEntry {
	c.mu.Lock()
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.ent
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	var prev *cacheEntry
	if el, ok := c.entries[key]; ok {
		prev = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()

	var outcome refreshOutcome
	// Deferred so that a panic in fn still releases the waiters.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if fl.ent != nil {
			c.put(fl.ent, outcome)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.ent, outcome = fn(prev)
	return fl.ent
}

// put publishes ent under its key and books the work that produced it.
// Caller holds mu.
func (c *QueryCache) put(ent *cacheEntry, outcome refreshOutcome) {
	switch outcome {
	case refreshPatched:
		c.patches++
		c.mPatches.Inc()
	case refreshRebuilt:
		c.rebuilds++
	}
	if el, ok := c.entries[ent.key]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.entries[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		c.mEvictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns (hits, misses) so far. A read answered by a patch or by
// waiting for another reader's refresh is a miss.
func (c *QueryCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is a full accounting snapshot of the cache.
type CacheStats struct {
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	Evictions          uint64 `json:"evictions"`
	StaleInvalidations uint64 `json:"stale_invalidations"`
	// Patches and Rebuilds split the work misses caused: entries brought
	// forward from the version diff versus views built from scratch (cold
	// keys and every fallback). Misses that waited for another reader's
	// refresh are in neither.
	Patches  uint64 `json:"patches"`
	Rebuilds uint64 `json:"rebuilds"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// Snapshot returns every counter at once — the /healthz payload and the
// E8 experiment both read this.
func (c *QueryCache) Snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.evictions,
		StaleInvalidations: c.stale,
		Patches:            c.patches,
		Rebuilds:           c.rebuilds,
		Entries:            c.ll.Len(),
		Capacity:           c.capacity,
	}
}

// Clear drops every entry. A refresh in flight still lands afterwards.
func (c *QueryCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
}
