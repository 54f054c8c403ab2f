package gsacs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/seconto"
)

// TestViewDocumentsArePinned: every role's /v1/view document, in both
// formats, over the seed-7 scenarios of 12 and 450 sites, has the length and
// ETag (a hash of the bytes) it had when the documents were written from the
// view's triples by the term-level writers.
func TestViewDocumentsArePinned(t *testing.T) {
	golden := []struct {
		sites        int
		role, format string
		size         int
		etag         string
	}{
		{12, "MainRep", "turtle", 11889, `"0e8304212943783962741e05e8a3fa9e"`},
		{12, "MainRep", "ntriples", 25835, `"40a5bbf4c43307f5180a055db6bf91b3"`},
		{12, "Hazmat", "turtle", 17079, `"90fdc65d80c1de2e488862d9bba05eb1"`},
		{12, "Hazmat", "ntriples", 39359, `"3a8ded7adc27595a963b9ba73549268f"`},
		{12, "EmergencyResponse", "turtle", 20253, `"d63b8f8531ccd7f8ee0c232075f8b2cc"`},
		{12, "EmergencyResponse", "ntriples", 48472, `"3ac319d345bc2f45f806a14825c828f2"`},
		{450, "MainRep", "turtle", 141918, `"6cf506c19ff925fbd02a4ad3f3afaa6f"`},
		{450, "MainRep", "ntriples", 352088, `"76989c77b9072bd7089c166706e790b2"`},
		{450, "Hazmat", "turtle", 332915, `"e336a042ec2a1fae27693e43b9d0fd6b"`},
		{450, "Hazmat", "ntriples", 846385, `"d5ff57eb1775500bf71f5147063df488"`},
		{450, "EmergencyResponse", "turtle", 448917, `"1ddd429e7d3317041b665153a4e0fb0a"`},
		{450, "EmergencyResponse", "ntriples", 1178837, `"bf0cd80f7c6884d80ffb21f08fd428e9"`},
	}
	servers := map[int]*Server{}
	for _, g := range golden {
		srv := servers[g.sites]
		if srv == nil {
			srv, _ = shapeServer(g.sites)
			servers[g.sites] = srv
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/view?role="+g.role+"&format="+g.format, nil))
		if rec.Code != http.StatusOK || rec.Body.Len() != g.size || rec.Header().Get("ETag") != g.etag {
			t.Errorf("%d sites, %s as %s: status %d, %d bytes, ETag %s; want %d bytes, ETag %s",
				g.sites, g.format, g.role, rec.Code, rec.Body.Len(), rec.Header().Get("ETag"), g.size, g.etag)
		}
	}
}

// successor is an entry for ent's view as a patch that changed nothing the
// role sees would make it: same view, same dictionary, so the names and the
// document sizes come along. Its documents are not rendered yet.
func successor(ent *cacheEntry) *cacheEntry {
	next := &cacheEntry{base: ent.base, reasoner: ent.reasoner, view: ent.view}
	next.carryDocuments(ent)
	return next
}

// TestViewDocumentAllocations bounds what one render of MainRep's Turtle
// document costs at 450 sites (2,824 triples, 141,918 bytes) once the view's
// names are made — the steady state of an entry patched forward under writes.
// The bound is the measured 0.29 MB plus 15% (the body itself is 0.14 MB);
// writing from a copy of the view's triples with term-keyed maps, into a
// bytes.Buffer cloned at the end, cost 2.04 MB by the same measure.
func TestViewDocumentAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 450-site scenario")
	}
	srv, _ := shapeServer(450)
	ent := srv.engine.viewEntry(context.Background(), datagen.RoleMainRepair, seconto.ActionView)
	if d, _ := ent.document(0); d.err != nil || len(d.body) != 141918 {
		t.Fatalf("MainRep's document: %d bytes, %v", len(d.body), d.err)
	}
	const renders = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range renders {
		ent = successor(ent)
		ent.document(0)
	}
	runtime.ReadMemStats(&after)
	perRender := float64(after.TotalAlloc-before.TotalAlloc) / renders
	t.Logf("%.0f bytes allocated per render", perRender)
	const bound = 0.29e6 * 1.15
	if perRender > bound {
		t.Errorf("a render allocates %.0f bytes; want at most %.0f", perRender, bound)
	}
}

// TestDocumentsShareNamesAcrossVersions: the entries of one slot share the
// names of their view's dictionary, and render their documents from them at
// the same time as each other and as the commits that make the slot's next
// entries, which add to them. Every document is the term-level writers' of
// its view. Run it with -race.
func TestDocumentsShareNamesAcrossVersions(t *testing.T) {
	e, sc, editor, _ := writeScenario(t)
	srv := NewServer(e, nil)
	ctx := context.Background()
	old := e.viewEntry(ctx, datagen.RoleHazmat, seconto.ActionView)
	rename := func(i int) {
		site := sc.Chemical.Sites[i%len(sc.Chemical.Sites)]
		was, _ := sc.Merged.FirstObject(site.IRI, datagen.HasSiteName)
		op := updateOp(rdf.T(site.IRI, datagen.HasSiteName, was), rdf.T(site.IRI, datagen.HasSiteName, rdf.NewString(fmt.Sprintf("Plant %d", i))))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate?role="+editor.LocalName(), strings.NewReader("["+op+"]")))
		if rec.Code != http.StatusOK {
			t.Errorf("rename %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rename(0)
	patched := e.viewEntry(ctx, datagen.RoleHazmat, seconto.ActionView)
	if patched == old || patched.names != old.names {
		t.Fatalf("the patched entry does not share its predecessor's names (same entry: %v)", patched == old)
	}

	check := func(ent *cacheEntry) {
		for f := range viewFormats {
			d, _ := ent.document(f)
			if want := renderView(f, ent.view); d.err != nil || string(d.body) != want {
				t.Errorf("%s document of generation %d is not its view's (%v)\n%s",
					viewFormats[f].name, ent.base.Generation(), d.err, lineDiff(string(d.body), want))
			}
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 4 {
				check(successor([]*cacheEntry{old, patched}[i%2]))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i <= 8; i++ {
			rename(i)
			check(e.viewEntry(ctx, datagen.RoleHazmat, seconto.ActionView))
		}
	}()
	close(start)
	wg.Wait()
	if now := e.viewEntry(ctx, datagen.RoleHazmat, seconto.ActionView); now.names != old.names {
		t.Errorf("the entries of the writes did not keep the names")
	}
}

// BenchmarkViewDocument renders MainRep's Turtle document at 450 sites, the
// view's names made, as an entry patched forward does.
func BenchmarkViewDocument(b *testing.B) {
	srv, _ := shapeServer(450)
	ent := srv.engine.viewEntry(context.Background(), datagen.RoleMainRepair, seconto.ActionView)
	ent.document(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		ent = successor(ent)
		ent.document(0)
	}
}
