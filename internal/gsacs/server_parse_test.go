package gsacs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestPoisonInsertIsRefused: an insert whose IRI escape decodes to '>' is a
// bad request, and nothing reaches the log. Acknowledging it would write a
// record that no recovery or follower can read back.
func TestPoisonInsertIsRefused(t *testing.T) {
	e0, sc, _, admin := writeScenario(t)
	dir := t.TempDir()
	st := store.New()
	repo, err := wal.Open(st, wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll(e0.Data().Triples())
	e := New(sc.Policies, st, Options{})
	srv := httptest.NewServer(NewServer(e, nil))
	defer srv.Close()

	site := sc.Chemical.Sites[0].IRI
	poison := fmt.Sprintf(`%s <http://grdf.org/app#hasNote> <http://e/a%su003Eb> .`, site, `\`)
	body, _ := json.Marshal([]map[string]string{{"op": "insert", "triples": poison}})
	gen := st.Generation()
	resp, out := postMutate(t, srv, admin.LocalName(), string(body))
	wantEnvelope(t, resp, out, "bad_request", http.StatusBadRequest)
	if !strings.Contains(out, "cannot be written back") {
		t.Errorf("refused for another reason: %s", out)
	}
	if st.Generation() != gen {
		t.Fatalf("generation moved %d → %d on a refused write", gen, st.Generation())
	}

	// The log holds the seed commit alone, and recovers to the same state.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	back := store.New()
	repo2, err := wal.Open(back, wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer repo2.Close()
	if back.Generation() != gen || back.Len() != st.Len() {
		t.Errorf("recovered generation %d with %d triples, want %d with %d",
			back.Generation(), back.Len(), gen, st.Len())
	}
}

// TestMutateFieldAllocations: the fields of a four-op batch shaped like the
// benchmark's durable writes — insert, update, delete, update — parse in a
// few allocations each, not a 64 KiB line buffer per field.
func TestMutateFieldAllocations(t *testing.T) {
	s := rdf.IRI("http://grdf.org/app#chem_site003")
	stmt := func(p, o string) string {
		return rdf.T(s, rdf.IRI("http://grdf.org/app#"+p), rdf.NewString(o)).String() + "\n"
	}
	batch := []mutateOpRequest{
		{Op: "insert", Triples: stmt("hasNote", "c1-b7")},
		{Op: "update", Old: stmt("hasSiteName", "Site 3 v1"), New: stmt("hasSiteName", "Site 3 v2")},
		{Op: "delete", Triples: stmt("hasNote", "c1-b3")},
		{Op: "update", Old: stmt("hasContactPhone", "555-0101"), New: stmt("hasContactPhone", "555-0102")},
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range batch {
				if _, err := parseMutateOp(req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 16<<10 {
		t.Errorf("parsing a 4-op batch allocates %d bytes, want < 16 KiB", got)
	}
}
