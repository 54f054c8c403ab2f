package wal

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// pinnedTriples exercise every term kind and every literal escape.
var pinnedTriples = []rdf.Triple{
	triple(1),
	rdf.T(rdf.BlankNode("b0"), rdf.IRI("http://example.org/p"), rdf.NewLangString("é\t\"x\"\\", "en")),
	rdf.T(rdf.IRI("http://example.org/s"), rdf.IRI("http://example.org/n"), rdf.NewInteger(42)),
}

// oldSegment is a segment as logs written while the audit trail rode the
// commit stream hold it: a commit at generation 0, an audit frame, a commit
// at generation 1.
func oldSegment(t testing.TB) []byte {
	const seg = "3b0000009ed9b15a0700010101353c687474703a2f2f6578616d706c652e6f72672f73313e203c687474703a2f2f6578616d706c652e6f72672f703e2022763122202e" +
		"4f0000007ff381d005004c7b22536571223a312c225375626a656374223a22687474703a2f2f677264662e6f72672f6f6e746f6c6f67792f7365636f6e746f23577269746572222c22416c6c6f776564223a747275657d" +
		"3b0000000eff0dcb0701010101353c687474703a2f2f6578616d706c652e6f72672f73323e203c687474703a2f2f6578616d706c652e6f72672f703e2022763222202e"
	b, err := hex.DecodeString(seg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatsArePinned holds a commit record and a snapshot to the bytes
// every data directory and snapshot transfer already holds, and reads them
// back — and a segment holding a retired audit frame between two commits to
// the state its commits make.
func TestFormatsArePinned(t *testing.T) {
	const (
		wantRecord = "3b010000726ed2200703030103353c687474703a2f2f6578616d706c652e6f72672f73313e203c687474703a2f2f6578616d706c652e6f72672f703e2022763122202e2e5f3a6230203c687474703a2f2f6578616d706c652e6f72672f703e2022c3a95c745c22785c225c5c2240656e202e603c687474703a2f2f6578616d706c652e6f72672f733e203c687474703a2f2f6578616d706c652e6f72672f6e3e20223432225e5e3c687474703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d6123696e74656765723e202e0302353c687474703a2f2f6578616d706c652e6f72672f73313e203c687474703a2f2f6578616d706c652e6f72672f703e2022763122202e353c687474703a2f2f6578616d706c652e6f72672f73323e203c687474703a2f2f6578616d706c652e6f72672f703e2022763222202e0400"
		wantSnap   = "47524446534e4150320a0503353c687474703a2f2f6578616d706c652e6f72672f73313e203c687474703a2f2f6578616d706c652e6f72672f703e2022763122202e2e5f3a6230203c687474703a2f2f6578616d706c652e6f72672f703e2022c3a95c745c22785c225c5c2240656e202e603c687474703a2f2f6578616d706c652e6f72672f733e203c687474703a2f2f6578616d706c652e6f72672f6e3e20223432225e5e3c687474703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d6123696e74656765723e202e55f78b74"
	)
	rec := commit(3, add(pinnedTriples...), replace(triple(1), triple(2)), clearOp)
	frame, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != wantRecord {
		t.Errorf("commit record bytes changed:\n got %s\nwant %s", got, wantRecord)
	}
	got, _, err := DecodeRecord(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRecord(t, got, rec)

	snap := EncodeSnapshotBytes(5, pinnedTriples)
	if got := hex.EncodeToString(snap); got != wantSnap {
		t.Errorf("snapshot bytes changed:\n got %s\nwant %s", got, wantSnap)
	}
	gen, ts, err := DecodeSnapshotBytes(snap)
	if err != nil || gen != 5 || len(ts) != len(pinnedTriples) {
		t.Fatalf("snapshot decoded to generation %d, %d triples, %v", gen, len(ts), err)
	}
	for i, tr := range ts {
		if tr != pinnedTriples[i] {
			t.Errorf("snapshot triple %d = %v, want %v", i, tr, pinnedTriples[i])
		}
	}

	// The audit frame decodes, and replay skips it.
	seg := oldSegment(t)
	first, off, err := DecodeRecord(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	audit, _, err := DecodeRecord(seg, off)
	if err != nil || audit.Kind != KindAudit {
		t.Fatalf("second frame decoded to %v, %v; want the audit frame", audit.Kind, err)
	}
	st := store.New()
	if err := ApplyRecord(st, first); err != nil {
		t.Fatal(err)
	}
	if err := ApplyRecord(st, audit); err != nil || st.Generation() != 1 || st.Len() != 1 {
		t.Fatalf("applying the audit frame: %v, store at generation %d with %d triples, want 1 and 1",
			err, st.Generation(), st.Len())
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, repo := openRepo(t, dir, Options{})
	defer repo.Close()
	if st.Generation() != 2 || !st.Has(triple(1)) || !st.Has(triple(2)) || st.Len() != 2 {
		t.Fatalf("old segment recovered to generation %d with %v, want generation 2 with s1 and s2",
			st.Generation(), tripleSet(st))
	}
	if info := repo.Info(); info.RecordsReplayed != 3 || repo.HeadSeq() != 3 {
		t.Errorf("replayed %d records, head %d; want all 3 frames", info.RecordsReplayed, repo.HeadSeq())
	}
	if got := repo.AuditReplay(); len(got) != 0 {
		t.Errorf("the segment's audit frame came back as %d audit payloads", len(got))
	}
}

// TestDecodeAllocationsPerStatement: reading a statement back costs its own
// terms, not a line buffer per statement.
func TestDecodeAllocationsPerStatement(t *testing.T) {
	const n = 1000
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(rdf.IRI(fmt.Sprintf("http://grdf.org/app#chem_site%03d", i)),
			rdf.IRI("http://grdf.org/app#hasNote"), rdf.NewString(fmt.Sprintf("note %d", i)))
	}
	frame, err := encodeRecord(commit(1, add(ts...)))
	if err != nil {
		t.Fatal(err)
	}
	snap := EncodeSnapshotBytes(1, ts)
	for name, decode := range map[string]func() error{
		"commit record": func() error { _, _, err := DecodeRecord(frame, 0); return err },
		"snapshot":      func() error { _, _, err := DecodeSnapshotBytes(snap); return err },
	} {
		if err := decode(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if per := res.AllocedBytesPerOp() / n; per >= 2<<10 {
			t.Errorf("decoding a %d-statement %s allocates %d bytes per statement, want < 2 KiB", n, name, per)
		}
	}
}
