package turtle

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/store"
)

// retainDoc is a document with every kind of token a term keeps: IRIs,
// prefixed names, blank node labels, plain, tagged and typed literals, and
// numbers.
func retainDoc(n int) []byte {
	var b []byte
	b = append(b, "@prefix ex: <http://example.org/> .\n"...)
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "<http://example.org/s%d> ex:p _:b%d ; ex:name \"n%d\"@en ; ex:size %d ;\n", i, i, i, i)
		b = fmt.Appendf(b, "  ex:kind \"k%d\"^^<http://example.org/dt> ; ex:rate %d.5 .\n", i%7, i)
	}
	return b
}

// TestLoadedDocumentIsNotRetained: once a parsed document's triples are in a
// store and the triples themselves are dropped, the document is garbage — no
// term the store's dictionary keeps is a window on it. The document is read
// through a string over a buffer the test owns, and a finalizer on the
// buffer reports its collection.
func TestLoadedDocumentIsNotRetained(t *testing.T) {
	buf := retainDoc(200)
	var collected atomic.Bool
	runtime.SetFinalizer(&buf[0], func(*byte) { collected.Store(true) })
	ts, err := ParseTriples(unsafe.String(&buf[0], len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddAll(ts)
	buf, ts = nil, nil
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatalf("the document of a loaded store of %d triples is still live after its triples were dropped", st.Len())
	}
	runtime.KeepAlive(st)
}
