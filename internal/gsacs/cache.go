package gsacs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// QueryCache is the Fig. 3 performance optimizer: "in many systems, the same
// queries tend to occur frequently and as a result, having a caching
// mechanism that stores the queries and corresponding answers would provide
// a significant performance boost."
//
// What is cached is a role's view, and the answer /v1/view gives from it, so
// the keys are the (role, action) pairs the policy set names: few, written
// down, fixed when the engine is built. Each has one slot. A slot's entry is
// the view together with the version of the data it is a view of, and the
// view's documents once an export has asked for them; a lookup is a hit when
// that version is still the store's current one, and takes no lock. When it
// is not, the entry stays as the base the next reader patches forward from
// the MVCC diff (see patchView), so a write costs the reads after it what it
// changed, not a rebuild. That reader holds the slot's mutex while it works;
// the readers behind it wait there and find the entry current.
//
// The counters tell apart what operators need to: cold misses from stale
// invalidations (an entry reflecting an older data generation) and, for the
// work a miss caused, patches from full rebuilds. A high rebuild rate under
// writes means the writes are too large to patch. Documents rendered, over
// the /v1/view requests served, is the share of exports that rendered.
type QueryCache struct {
	// slots is read-only once the engine is built.
	slots map[viewKey]*slot

	hits, misses, stale, patches, rebuilds, documents atomic.Uint64
}

type viewKey struct{ subject, action rdf.IRI }

type slot struct {
	// mu is held across a refresh: it is the single-flight.
	mu  sync.Mutex
	cur atomic.Pointer[cacheEntry]
}

// cacheEntry is one role view and what it is a view of.
type cacheEntry struct {
	// base is the version of the data the view reflects: view holds exactly
	// the triples buildView yields over base. It is the entry's generation
	// label and the left-hand side of the diff when the entry is patched.
	base store.StoreView
	// reasoner is the reasoner whose decisions the view holds.
	reasoner *Reasoner
	view     *store.Store
	// fired counts, per rule, the governed resources of base whose decision
	// it fired in; a patch carries it forward. rules is its key set, sorted:
	// the rules an audit entry of a request the entry answers lists.
	fired map[rdf.IRI]int
	rules []string
	// sparql evaluates queries over view: built once with the entry, shared
	// read-only by every request the entry answers.
	sparql *sparql.Engine
	// docs are view serialized, one per format of viewFormats: the answer
	// /v1/view gives while the entry is current. A patched or rebuilt entry
	// is a new entry and starts with none, so a document is never stale.
	docs [len(viewFormats)]document
	// names and cells are the Turtle forms and the /v1/query cells of the
	// terms of view's dictionary. A patched view keeps its dictionary, and
	// the entry its predecessor's names and cells; a rebuilt one starts them
	// afresh.
	names *turtle.Names
	cells *sparql.Cells
	// sizes are the predecessor's document sizes, per format (0: unknown):
	// what a render sizes its body by.
	sizes [len(viewFormats)]int
}

// viewFormat is a serialization /v1/view offers, by the name its format
// parameter takes.
type viewFormat struct {
	name, contentType string
	// render appends a view to dst, given the names of its dictionary.
	render func(dst []byte, v store.StoreView, names *turtle.Names) []byte
}

// viewFormats are the formats of every entry's documents; the first is the
// default.
var viewFormats = [...]viewFormat{
	{"turtle", "text/turtle", turtle.AppendView},
	{"ntriples", "application/n-triples", func(dst []byte, v store.StoreView, _ *turtle.Names) []byte {
		return ntriples.AppendView(dst, v)
	}},
}

// carryDocuments gives ent what it takes over from prev, the entry it
// succeeds (nil when cold): the names and cells of its view's dictionary if
// the view kept it, and its document sizes.
func (ent *cacheEntry) carryDocuments(prev *cacheEntry) {
	if prev == nil || prev.view.Dict() != ent.view.Dict() {
		ent.names, ent.cells = turtle.NewNames(nil), &sparql.Cells{}
	} else {
		ent.names, ent.cells = prev.names, prev.cells
	}
	if prev != nil {
		for f := range ent.sizes {
			if ent.sizes[f] = int(prev.docs[f].size.Load()); ent.sizes[f] == 0 {
				ent.sizes[f] = prev.sizes[f]
			}
		}
	}
}

// document is one serialization of an entry's view, rendered at most once —
// by the entry's first export in its format, which the exports arriving
// meanwhile wait for — and read-only after.
type document struct {
	once sync.Once
	body []byte
	// etag is a strong validator: a hash of body, not of the entry's
	// generation, which a Load can install again with other triples.
	etag string
	err  error
	// size is len(body) once rendered, for Snapshot, which does not wait on
	// a render.
	size atomic.Int64
}

var errRenderPanicked = errors.New("rendering the view panicked")

// document returns the entry's view serialized in viewFormats[f]; rendered
// reports whether this call made it.
func (ent *cacheEntry) document(f int) (d *document, rendered bool) {
	d = &ent.docs[f]
	d.once.Do(func() {
		rendered = true
		// Once marks a render that panics as done: what it leaves must read
		// as a failure, not as an empty view.
		d.err = errRenderPanicked
		// The body is held for the entry's life, so it is made at about its
		// size: its predecessor's, give or take a write. A cold slot's first
		// render, or a write that grew the document past the margin, pays a
		// copy instead of holding the slack.
		size := ent.sizes[f]
		d.body = viewFormats[f].render(make([]byte, 0, size+size/32), ent.view.View(), ent.names)
		if cap(d.body)-len(d.body) > len(d.body)/16 {
			d.body = append([]byte(nil), d.body...)
		}
		d.err = nil
		sum := sha256.Sum256(d.body)
		d.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
		d.size.Store(int64(len(d.body)))
	})
	return d, rendered
}

// newQueryCache returns a cache with one empty slot per (subject, action)
// of the compiled policy set.
func newQueryCache(rules map[viewKey][]seconto.Rule) *QueryCache {
	c := &QueryCache{slots: map[viewKey]*slot{}}
	for k := range rules {
		c.slots[k] = &slot{}
	}
	return c
}

// instrument exports the cache's counters into reg.
func (c *QueryCache) instrument(reg *obs.Registry) {
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("grdf_cache_hits_total", "Query cache hits.", &c.hits)
	counter("grdf_cache_misses_total", "Query cache misses (cold and stale combined).", &c.misses)
	counter("grdf_cache_stale_invalidations_total",
		"Lookups that found an entry reflecting an older data generation.", &c.stale)
	counter("grdf_cache_patches_total",
		"Stale entries made current by patching from the version diff instead of a rebuild.", &c.patches)
	reg.GaugeFunc("grdf_cache_entries", "Entries currently cached.",
		func() float64 { return float64(c.Snapshot().Entries) })
}

// Stats returns (hits, misses) so far. A read answered by a patch or by
// waiting for another reader's refresh is a miss.
func (c *QueryCache) Stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }

// CacheStats is a full accounting snapshot of the cache.
type CacheStats struct {
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	StaleInvalidations uint64 `json:"stale_invalidations"`
	// Patches and Rebuilds split the work misses caused: entries brought
	// forward from the version diff versus views built from scratch (cold
	// slots and every fallback). Misses that waited for another reader's
	// refresh are in neither.
	Patches  uint64 `json:"patches"`
	Rebuilds uint64 `json:"rebuilds"`
	Entries  int    `json:"entries"`
	// Slots is the number of (role, action) pairs the policy set names.
	Slots int `json:"slots"`
	// Documents counts the view serializations rendered so far: at most one
	// per entry and format, so exports beyond it were answered from memory.
	Documents uint64 `json:"documents"`
	// DocumentBytes is what the current entries' documents hold.
	DocumentBytes int64 `json:"document_bytes"`
}

// Snapshot returns every counter — the /healthz payload.
func (c *QueryCache) Snapshot() CacheStats {
	st := CacheStats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		StaleInvalidations: c.stale.Load(),
		Patches:            c.patches.Load(),
		Rebuilds:           c.rebuilds.Load(),
		Slots:              len(c.slots),
		Documents:          c.documents.Load(),
	}
	for _, s := range c.slots {
		if ent := s.cur.Load(); ent != nil {
			st.Entries++
			for i := range ent.docs {
				st.DocumentBytes += ent.docs[i].size.Load()
			}
		}
	}
	return st
}

// Clear drops every entry. A refresh in flight still lands afterwards.
func (c *QueryCache) Clear() {
	for _, s := range c.slots {
		s.cur.Store(nil)
	}
}
