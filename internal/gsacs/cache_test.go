package gsacs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

// TestUnknownRoleCostsNothing: resolveRole turns any string into a role IRI,
// so what a role no policy names costs is what anyone can make the server
// pay. It must be one audit line per request and nothing else: no walk over
// the governed resources, no view build, no slot, and the views of the roles
// the policy set does name stay where they are.
func TestUnknownRoleCostsNothing(t *testing.T) {
	e, _ := scenarioEngine(t)
	e.EnableAudit(16)
	var persisted atomic.Int64
	e.SetAuditPersist(func([]byte) error { persisted.Add(1); return nil })
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()

	for _, role := range scenarioRoles {
		e.View(role, seconto.ActionView)
	}
	cache := e.Cache().Snapshot()
	ask := "&q=" + urlQueryEscape("ASK { ?s ?p ?o }")
	for i := 0; i < 40; i++ {
		for _, path := range []string{fmt.Sprintf("/v1/view?role=Junk%d", i), fmt.Sprintf("/v1/query?role=Junk%d", i) + ask} {
			recorded, journaled := e.AuditStats().Recorded, persisted.Load()
			resp, body := doReq(t, srv, http.MethodGet, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d %s", path, resp.StatusCode, body)
			}
			if n := e.AuditStats().Recorded - recorded; n > 1 {
				t.Fatalf("request %d by an unknown role recorded %d audit lines, want at most 1", i, n)
			}
			if n := persisted.Load() - journaled; n > 1 {
				t.Fatalf("request %d by an unknown role journaled %d audit lines, want at most 1", i, n)
			}
		}
	}
	if got := e.Cache().Snapshot(); got != cache {
		t.Errorf("unknown roles moved the cache: %+v, was %+v", got, cache)
	}
	hits, _ := e.Cache().Stats()
	for _, role := range scenarioRoles {
		e.View(role, seconto.ActionView)
	}
	if now, _ := e.Cache().Stats(); now-hits != uint64(len(scenarioRoles)) {
		t.Errorf("%d of %d warmed roles still hit after the flood", now-hits, len(scenarioRoles))
	}
	// The denial is on the record.
	trail := e.AuditTrail()
	if last := trail[len(trail)-1]; last.Allowed || last.Subject != rdf.IRI(seconto.NS+"Junk39") {
		t.Errorf("last audit line = %+v, want the denial of Junk39", last)
	}
}

// TestSlotSingleFlight: however many readers find a role's view stale at the
// same time, one of them patches it and the rest share the result.
func TestSlotSingleFlight(t *testing.T) {
	e, sc := scenarioEngine(t)
	checkViews(t, e, "cold build")
	site := sc.Chemical.Sites[0]
	if ok, err := sc.Merged.Replace(rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(site.Name)),
		rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString("Renamed Plant"))); !ok || err != nil {
		t.Fatalf("rename: %v %v", ok, err)
	}
	before := e.Cache().Snapshot()

	const readers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		for _, role := range scenarioRoles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if ent := e.viewEntry(context.Background(), role, seconto.ActionView); ent.base.Generation() != sc.Merged.Generation() {
					t.Errorf("%s served generation %d, store is at %d", role.LocalName(), ent.base.Generation(), sc.Merged.Generation())
				}
			}()
		}
	}
	close(start)
	wg.Wait()

	after := e.Cache().Snapshot()
	if n := after.Patches - before.Patches; n != uint64(len(scenarioRoles)) {
		t.Errorf("%d readers per role after one write made %d patches, want one per role", readers, n)
	}
	if after.Rebuilds != before.Rebuilds {
		t.Errorf("rebuilds %d -> %d", before.Rebuilds, after.Rebuilds)
	}
	if n := (after.Hits + after.Misses) - (before.Hits + before.Misses); n != readers*uint64(len(scenarioRoles)) {
		t.Errorf("%d lookups accounted for, want %d", n, readers*len(scenarioRoles))
	}
	checkViews(t, e, "concurrent refresh")
}

// gatedReasoner parks TypesOf on a channel and then panics, once, when armed:
// a refresh that dies while other readers wait on its slot.
type gatedReasoner struct {
	Reasoner
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedReasoner) TypesOf(ind rdf.Term) []rdf.Term {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
		panic("reasoner fell over")
	}
	return g.Reasoner.TypesOf(ind)
}

// TestSlotRefreshPanicReleasesWaiters: the slot's mutex is the single-flight,
// so a refresh that panics must still unlock it — the readers queued behind
// it go on to refresh for themselves instead of hanging forever.
func TestSlotRefreshPanicReleasesWaiters(t *testing.T) {
	plain, sc := scenarioEngine(t)
	g := &gatedReasoner{Reasoner: plain.Reasoner(), entered: make(chan struct{}), release: make(chan struct{})}
	e := New(sc.Policies, sc.Merged, Options{Reasoner: g})
	g.armed.Store(true)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		e.View(datagen.RoleHazmat, seconto.ActionView)
	}()
	<-g.entered // the doomed refresh holds Hazmat's slot

	const waiters = 4
	views := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() { views <- e.View(datagen.RoleHazmat, seconto.ActionView).Len() }()
	}
	// Every reader counts its miss just before it queues on the slot: once all
	// are counted, the waiters are at the mutex the doomed refresh holds.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, misses := e.Cache().Stats(); misses == 1+waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiters never reached the slot")
		}
	}
	close(g.release)
	if v := <-panicked; v == nil {
		t.Fatal("the armed refresh did not panic")
	}
	want := plain.View(datagen.RoleHazmat, seconto.ActionView).Len()
	for i := 0; i < waiters; i++ {
		select {
		case got := <-views:
			if got != want {
				t.Errorf("waiter got a view of %d triples, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a reader is still waiting on the slot of a refresh that panicked")
		}
	}
	if st := e.Cache().Snapshot(); st.Rebuilds != 1 {
		t.Errorf("after the panic the waiters made %d rebuilds, want 1 shared by all", st.Rebuilds)
	}
}

// TestCacheMissesALoadAtAnOldGeneration: Load can install other triples at a
// generation the store has shown before — a follower re-bootstrapping from a
// leader that lost commits it never made durable. A slot labelled with the
// old version must miss there, though the generation is the same.
func TestCacheMissesALoadAtAnOldGeneration(t *testing.T) {
	e, sc := scenarioEngine(t)
	checkViews(t, e, "cold build")
	site := sc.Chemical.Sites[0]
	old := rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(site.Name))
	renamed := rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString("Reloaded Plant"))
	ts := sc.Merged.Triples()
	for i := range ts {
		if ts[i] == old {
			ts[i] = renamed
		}
	}
	sc.Merged.Load(sc.Merged.Generation(), ts)

	for _, role := range scenarioRoles {
		if ent := e.viewEntry(context.Background(), role, seconto.ActionView); !ent.base.Same(sc.Merged.View()) {
			t.Errorf("%s: served the version cached before the load (generation %d both)",
				role.LocalName(), sc.Merged.Generation())
		}
	}
	checkViews(t, e, "a load at the same generation")
	if v := e.View(datagen.RoleHazmat, seconto.ActionView); !v.Has(renamed) || v.Has(old) {
		t.Error("Hazmat's view does not show the loaded name")
	}
}
