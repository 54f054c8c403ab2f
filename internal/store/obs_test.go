package store

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

func TestStoreInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New().Instrument(reg)

	base := rdf.IRI("http://example.org/")
	p := base + "p"
	for i := 0; i < 40; i++ {
		s.Add(rdf.T(base+rdf.IRI(rune('a'+i%26)), p, rdf.NewString("v")))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "grdf_store_triples 26") {
		t.Errorf("triple gauge wrong:\n%s", out)
	}
	if !strings.Contains(out, "grdf_store_generation 26") {
		t.Errorf("generation gauge wrong:\n%s", out)
	}
	if want := fmt.Sprintf("grdf_store_dict_terms %d", s.DictLen()); !strings.Contains(out, want) {
		t.Errorf("dictionary gauge wrong, want %q:\n%s", want, out)
	}
	// 40 mutations at a 1-in-16 sampling rate: at least two holds observed.
	h := reg.Histogram("grdf_store_write_lock_hold_seconds", "", nil)
	if h.Count() < 2 {
		t.Errorf("lock-hold samples = %d", h.Count())
	}

	// Un-instrumented stores skip sampling entirely.
	s2 := New()
	for i := 0; i < 64; i++ {
		s2.Add(rdf.T(base+"x", p, rdf.NewInteger(int64(i))))
	}
	if s2.holdTick.Load() != 0 {
		t.Error("sampling ticked without instrumentation")
	}
}
