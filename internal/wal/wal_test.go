package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// triple builds a distinct test triple for index i.
func triple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://example.org/s%d", i)),
		rdf.IRI("http://example.org/p"),
		rdf.Literal{Value: fmt.Sprintf("v%d", i), Datatype: rdf.XSDString},
	)
}

// openRepo opens a repository over dir with the given options defaults.
func openRepo(t *testing.T, dir string, opts Options) (*store.Store, *Repository) {
	t.Helper()
	opts.Dir = dir
	st := store.New()
	repo, err := Open(st, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, repo
}

// tripleSet renders a store's triples as a sorted string set for comparison.
func tripleSet(st *store.Store) []string {
	ts := st.Triples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func sameState(t *testing.T, a, b *store.Store) {
	t.Helper()
	as, bs := tripleSet(a), tripleSet(b)
	if len(as) != len(bs) {
		t.Fatalf("stores differ: %d vs %d triples\n%v\n%v", len(as), len(bs), as, bs)
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("stores differ at %d: %q vs %q", i, as[i], bs[i])
		}
	}
}

// commit builds a KindCommit record of ops at generation gen.
func commit(gen uint64, ops ...store.Op) Record {
	return Record{Kind: KindCommit, Gen: gen, Ops: ops}
}

func add(ts ...rdf.Triple) store.Op    { return store.Op{Kind: store.OpAdd, Triples: ts} }
func remove(ts ...rdf.Triple) store.Op { return store.Op{Kind: store.OpRemove, Triples: ts} }
func replace(old, new rdf.Triple) store.Op {
	return store.Op{Kind: store.OpReplace, Triples: []rdf.Triple{old, new}}
}

var clearOp = store.Op{Kind: store.OpClear}

// sameRecord fails t unless got decodes to exactly what want encoded.
func sameRecord(t *testing.T, got, want Record) {
	t.Helper()
	if got.Kind != want.Kind || got.Gen != want.Gen || len(got.Ops) != len(want.Ops) {
		t.Fatalf("decoded kind=%v gen=%d %d ops, want kind=%v gen=%d %d ops",
			got.Kind, got.Gen, len(got.Ops), want.Kind, want.Gen, len(want.Ops))
	}
	for i, op := range want.Ops {
		if got.Ops[i].Kind != op.Kind || len(got.Ops[i].Triples) != len(op.Triples) {
			t.Fatalf("op %d: got %v with %d triples, want %v with %d", i,
				got.Ops[i].Kind, len(got.Ops[i].Triples), op.Kind, len(op.Triples))
		}
		for j := range op.Triples {
			if got.Ops[i].Triples[j].String() != op.Triples[j].String() {
				t.Fatalf("op %d triple %d: %s != %s", i, j, got.Ops[i].Triples[j], op.Triples[j])
			}
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		commit(7, add(triple(1), triple(2))),
		commit(9, remove(triple(1))),
		commit(12, replace(triple(2), triple(3))),
		commit(15, clearOp),
	}
	var log []byte
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Kind, err)
		}
		log = append(log, frame...)
	}
	off := 0
	for i, want := range recs {
		got, next, err := DecodeRecord(log, off)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		sameRecord(t, got, want)
		off = next
	}
	if _, _, err := DecodeRecord(log, off); err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("expected clean EOF at end of log, got %v", err)
	}
}

func TestDecodeRejectsCorruptFrame(t *testing.T) {
	frame, err := encodeRecord(commit(0, add(triple(1))))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: checksum must catch it.
	bad := append([]byte(nil), frame...)
	bad[frameHeaderLen+3] ^= 0x10
	if _, _, err := DecodeRecord(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}
	// Shear the frame: torn, not corrupt.
	if _, _, err := DecodeRecord(frame[:len(frame)-3], 0); !errors.Is(err, ErrTorn) {
		t.Fatalf("short frame: got %v, want ErrTorn", err)
	}
	// Zero-filled tail (post-crash filesystem signature): torn.
	if _, _, err := DecodeRecord(make([]byte, 32), 0); !errors.Is(err, ErrTorn) {
		t.Fatalf("zero fill: got %v, want ErrTorn", err)
	}
}

// frameOf wraps payload in a valid frame header, so the decoder sees bytes
// that pass the checksum and are judged on their structure alone.
func frameOf(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// TestRetiredKindsAreCorrupt: the previous log format wrote a single-op
// commit as kind 1–4 (add, remove, replace, clear: generation, triple count,
// length-prefixed triples) and a multi-op one as kind 6. Their generation
// counted triples, so such a frame must decode as ErrCorrupt — refusing the
// recovery loudly — never as data.
func TestRetiredKindsAreCorrupt(t *testing.T) {
	line := triple(1).String()
	item := binary.AppendUvarint(nil, uint64(len(line)))
	item = append(item, line...)
	sub := append([]byte{1, 1}, item...) // a kind-6 sub-op: add, one triple
	for _, payload := range [][]byte{
		append([]byte{1, 3, 1}, item...),                  // add, gen 3, one triple
		append([]byte{2, 3, 1}, item...),                  // remove
		append(append([]byte{3, 3, 2}, item...), item...), // replace
		{4, 3, 0}, // clear
		append([]byte{6, 3, 1, byte(len(sub))}, sub...), // batch of one add
	} {
		rec, _, err := DecodeRecord(frameOf(payload), 0)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("retired kind %d decoded to %+v, %v; want ErrCorrupt", payload[0], rec, err)
		}
	}
	// The same bytes under the commit kind are a commit: the test above
	// refuses the kinds, not the layout.
	if _, _, err := DecodeRecord(frameOf(append([]byte{byte(KindCommit), 3, 1}, sub...)), 0); err != nil {
		t.Fatalf("commit of one add: %v", err)
	}
}

func TestOpenEmptyDirAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})

	for i := 0; i < 10; i++ {
		if !st.Add(triple(i)) {
			t.Fatalf("add %d failed", i)
		}
	}
	st.Remove(triple(3))
	if ok, err := st.Replace(triple(4), triple(40)); err != nil || !ok {
		t.Fatalf("replace: ok=%v err=%v", ok, err)
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, repo2 := openRepo(t, dir, Options{Fsync: FsyncAlways})
	defer repo2.Close()
	sameState(t, st, st2)
	info := repo2.Info()
	if info.RecordsReplayed != 12 {
		t.Errorf("RecordsReplayed = %d, want 12", info.RecordsReplayed)
	}
	if info.TornTailTruncated {
		t.Error("unexpected torn-tail truncation on a clean log")
	}
}

func TestMutationsRefusedAfterClose(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{})
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(1)}}); !errors.Is(err, errClosed) {
		t.Fatalf("mutation after Close: got %v, want errClosed", err)
	}
	if st.Len() != 0 {
		t.Fatalf("store mutated after Close: %d triples", st.Len())
	}
}

// TestAuditRoundTrip: audit payloads go to audit.log, not to a segment — the
// commit stream's head and bytes stay put — and come back from AuditReplay
// after a restart, oldest first: across a rotation into audit.log.1, and
// with a torn final frame cut away.
func TestAuditRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	st.Add(triple(1))
	head, segment := repo.HeadSeq(), segmentSize(OSFS(), dir, 1)
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"seq":%d,"pad":%q}`, i, strings.Repeat("x", 1000))) }
	// Enough ~1 KB payloads to rotate once and start the second file.
	n := auditRotateBytes/1000 + 100
	for i := 0; i < n; i++ {
		if err := repo.AppendAudit(payload(i)); err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
	}
	if repo.HeadSeq() != head || segmentSize(OSFS(), dir, 1) != segment {
		t.Fatalf("audit appends moved the commit log: head %d -> %d, segment %d -> %d bytes",
			head, repo.HeadSeq(), segment, segmentSize(OSFS(), dir, 1))
	}
	repo.Close()
	// A torn final frame: the write of the last payload half-landed.
	name := filepath.Join(dir, auditName)
	fi, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := TruncateFile(name, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	if st2.Len() != 1 || repo2.Info().TornTailTruncated {
		t.Errorf("recovered %d triples (torn tail %v); the audit file is not the log's business",
			st2.Len(), repo2.Info().TornTailTruncated)
	}
	got := repo2.AuditReplay()
	rotated := 0
	walkFrames(mustRead(t, name+".1"), func([]byte) { rotated++ })
	if rotated == 0 || len(got) != n-1 {
		t.Fatalf("recovered %d audit payloads (%d from the rotated file), want %d", len(got), rotated, n-1)
	}
	for i := range got {
		if !bytes.Equal(got[i], payload(i)) {
			t.Fatalf("audit %d: %.20s…, want %.20s…", i, got[i], payload(i))
		}
	}
	// The cut tail is gone: the next append follows a whole frame.
	if err := repo2.AppendAudit(payload(n)); err != nil {
		t.Fatal(err)
	}
	if got := repo2.AuditReplay(); len(got) != n || !bytes.Equal(got[n-1], payload(n)) {
		t.Fatalf("after the cut tail, %d payloads, last %.20s…", len(got), got[len(got)-1])
	}
}

func mustRead(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		st.Add(triple(i))
	}
	repo.Close()

	// Shear the last frame mid-way: the classic partial-write crash.
	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := TruncateFile(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	info := repo2.Info()
	if !info.TornTailTruncated {
		t.Error("TornTailTruncated not reported")
	}
	if info.RecordsReplayed != 4 {
		t.Errorf("RecordsReplayed = %d, want 4 (last record torn away)", info.RecordsReplayed)
	}
	if st2.Len() != 4 {
		t.Errorf("store has %d triples, want 4", st2.Len())
	}
	// The truncated log must accept new appends and reopen cleanly.
	st2.Add(triple(99))
	repo2.Close()
	st3, repo3 := openRepo(t, dir, Options{})
	defer repo3.Close()
	if st3.Len() != 5 {
		t.Errorf("after truncate+append+reopen: %d triples, want 5", st3.Len())
	}
}

func TestMidLogCorruptionRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 8; i++ {
		st.Add(triple(i))
	}
	repo.Close()

	// Flip a bit deep inside the log — not the tail. Recovery must refuse.
	if err := FlipBit(filepath.Join(dir, segmentName(1)), 30, 2); err != nil {
		t.Fatal(err)
	}
	_, err := Open(store.New(), Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over flipped bit: got %v, want ErrCorrupt", err)
	}
}

func TestMidLogTornSegmentRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: 0})
	for i := 0; i < 4; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err != nil { // rotates to segment 2
		t.Fatal(err)
	}
	st.Add(triple(10))
	repo.Close()

	// Remove the snapshot and shear segment 1: now segment 1 is torn but NOT
	// final, which is unrecoverable damage, not a crash signature.
	if err := os.Remove(filepath.Join(dir, snapshotName(1))); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segmentName(1))
	fi, _ := os.Stat(seg1)
	if err := TruncateFile(seg1, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err := Open(store.New(), Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log torn segment: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 20; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i := 20; i < 25; i++ {
		st.Add(triple(i))
	}
	st.Remove(triple(0))
	repo.Close()

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
	info := repo2.Info()
	if info.SnapshotSeq != 1 {
		t.Errorf("SnapshotSeq = %d, want 1", info.SnapshotSeq)
	}
	if info.SnapshotTriples != 20 {
		t.Errorf("SnapshotTriples = %d, want 20", info.SnapshotTriples)
	}
	if info.RecordsReplayed != 6 {
		t.Errorf("RecordsReplayed = %d, want 6 (only post-snapshot records)", info.RecordsReplayed)
	}
}

func TestSnapshotFallbackWhenNewestCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Add(triple(100))
	repo.Close()

	// Corrupt the newest snapshot: recovery must fall back to the previous
	// one and replay the retained segments to the same state.
	if err := FlipBit(filepath.Join(dir, snapshotName(2)), 40, 5); err != nil {
		t.Fatal(err)
	}
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
	if repo2.Info().SnapshotSeq != 1 {
		t.Errorf("SnapshotSeq = %d, want fallback to 1", repo2.Info().SnapshotSeq)
	}
}

func TestSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncOff})
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			st.Add(triple(round*5 + i))
		}
		if err := repo.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", round, err)
		}
	}
	repo.Close()

	dirSt, err := listDir(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirSt.snapshots) != 2 {
		t.Errorf("%d snapshots retained, want 2: %v", len(dirSt.snapshots), dirSt.snapshots)
	}
	// Every retained segment must be newer than the older kept snapshot.
	keepFrom := dirSt.snapshots[0]
	for _, seq := range dirSt.segments {
		if seq <= keepFrom {
			t.Errorf("segment %d should have been collected (older kept snapshot is %d)", seq, keepFrom)
		}
	}
	// And the directory must still recover to the full state.
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
}

func TestAutomaticSnapshotTrigger(t *testing.T) {
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncOff, SnapshotEvery: 10})
	for i := 0; i < 25; i++ {
		st.Add(triple(i))
	}
	// The snapshotter is asynchronous: poll for its output.
	deadline := time.Now().Add(5 * time.Second)
	var dirSt dirState
	for {
		var err error
		dirSt, err = listDir(OSFS(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirSt.snapshots) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	repo.Close()
	if len(dirSt.snapshots) == 0 {
		t.Error("no automatic snapshot was written after 25 records with SnapshotEvery=10")
	}
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"off", FsyncOff}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted an unknown policy")
	}
}

func TestStoreMustBeEmpty(t *testing.T) {
	st := store.New()
	st.Add(triple(1))
	if _, err := Open(st, Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted a non-empty store")
	}
}

// --- chaos -----------------------------------------------------------------

func TestChaosFsyncFailureIsFailStop(t *testing.T) {
	dir := t.TempDir()
	// Warm up a clean log so the failure lands mid-stream.
	st0, repo0 := openRepo(t, dir, Options{Fsync: FsyncAlways})
	st0.Add(triple(0))
	repo0.Close()

	ffs := NewFaultFS(nil, FaultConfig{FailSyncAt: 3})
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways, FS: ffs})
	defer repo.Close()

	var acked []int
	var failed bool
	for i := 1; i <= 6; i++ {
		_, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(i)}})
		if err == nil {
			if failed {
				t.Fatalf("append %d succeeded after the log failed — fail-stop violated", i)
			}
			acked = append(acked, i)
			continue
		}
		failed = true
		if !errors.Is(err, ErrInjected) && !strings.Contains(err.Error(), "broken") {
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
		// The store must not have applied the unacknowledged mutation.
		if st.Has(triple(i)) {
			t.Fatalf("unacked triple %d is visible in the store", i)
		}
	}
	if !failed {
		t.Fatal("fault never fired")
	}
	repo.Close()

	// Recovery must surface every acked mutation (and may surface nothing
	// else, since failed appends were never applied).
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	for _, i := range acked {
		if !st2.Has(triple(i)) {
			t.Errorf("acked triple %d lost across recovery", i)
		}
	}
	if !st2.Has(triple(0)) {
		t.Error("pre-fault triple 0 lost")
	}
}

func TestChaosShortWriteIsRepaired(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultConfig{ShortWriteAt: 3})
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways, FS: ffs})

	var acked []int
	sawFault := false
	for i := 0; i < 6; i++ {
		_, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{triple(i)}})
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("append %d: unexpected error %v", i, err)
			}
			sawFault = true
			continue
		}
		acked = append(acked, i)
	}
	if !sawFault {
		t.Fatal("short-write fault never fired")
	}
	if err := repo.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The torn frame was truncate-repaired in place, so recovery sees a clean
	// log holding exactly the acked mutations.
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	if repo2.Info().TornTailTruncated {
		t.Error("torn tail at recovery — the short write was not repaired at append time")
	}
	if st2.Len() != len(acked) {
		t.Errorf("recovered %d triples, want %d", st2.Len(), len(acked))
	}
	for _, i := range acked {
		if !st2.Has(triple(i)) {
			t.Errorf("acked triple %d lost", i)
		}
	}
}

func TestChaosSnapshotRenameFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultConfig{FailRenameAt: 1})
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways, FS: ffs})
	for i := 0; i < 5; i++ {
		st.Add(triple(i))
	}
	if err := repo.Snapshot(); err == nil {
		t.Fatal("snapshot with failing rename reported success")
	}
	// The failed snapshot must not damage durability: log still replays.
	st.Add(triple(5))
	repo.Close()
	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	sameState(t, st, st2)
	if repo2.Info().SnapshotSeq != 0 {
		t.Errorf("recovered from snapshot %d, want none", repo2.Info().SnapshotSeq)
	}
}

func TestChaosConcurrentWritersUnderFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultConfig{ShortWriteAt: 17})
	st, repo := openRepo(t, dir, Options{Fsync: FsyncOff, FS: ffs, SnapshotEvery: 25})

	const writers, perWriter = 4, 30
	var mu sync.Mutex
	acked := make(map[string]bool)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := triple(w*1000 + i)
				if _, err := st.Apply(store.Op{Kind: store.OpAdd, Triples: []rdf.Triple{tr}}); err == nil {
					mu.Lock()
					acked[tr.String()] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := repo.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, repo2 := openRepo(t, dir, Options{})
	defer repo2.Close()
	have := make(map[string]bool)
	for _, line := range tripleSet(st2) {
		have[line] = true
	}
	for tr := range acked {
		if !have[tr] {
			t.Errorf("acked triple %s lost across recovery", tr)
		}
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways, Metrics: reg})
	st.Add(triple(1))
	if err := repo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	repo.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"grdf_wal_appends_total", "grdf_wal_bytes", "grdf_wal_fsync_seconds",
		"grdf_recovery_seconds", "grdf_snapshots_total", "grdf_snapshot_triples",
		"grdf_wal_segments", "grdf_snapshot_bytes", "grdf_snapshot_duration_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
}

// FuzzWALDecode throws arbitrary bytes at the frame decoder: it must never
// panic and must only ever return a record, EOF, ErrTorn or ErrCorrupt.
func FuzzWALDecode(f *testing.F) {
	for _, r := range []Record{
		commit(1, add(triple(1))),
		commit(2, replace(triple(1), triple(2)), remove(triple(3))),
		commit(3, clearOp),
	} {
		frame, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(oldSegment(f))
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for {
			rec, next, err := DecodeRecord(data, off)
			if err != nil {
				return // EOF, torn or corrupt — all acceptable terminal states
			}
			if next <= off {
				t.Fatalf("decoder did not advance: off=%d next=%d", off, next)
			}
			off = next
			if rec.Kind == KindAudit {
				continue // retired: decoded to be skipped, never written
			}
			// A decoded commit re-encodes, and decodes back to itself.
			frame, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			again, _, err := DecodeRecord(frame, 0)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			sameRecord(t, again, rec)
		}
	})
}

// FuzzCommitRoundTrip: any commit the store can hand the log — random op
// lists of every kind, any generation, ops with no triples and 2-triple
// replaces — decodes to itself.
func FuzzCommitRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	kinds := []store.OpKind{store.OpAdd, store.OpRemove, store.OpReplace, store.OpClear}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rec := Record{Kind: KindCommit, Gen: rng.Uint64() >> uint(rng.Intn(64))}
		for i := 0; i < 1+rng.Intn(6); i++ {
			op := store.Op{Kind: kinds[rng.Intn(len(kinds))]}
			switch op.Kind {
			case store.OpReplace:
				op.Triples = []rdf.Triple{triple(rng.Intn(100)), triple(rng.Intn(100))}
			case store.OpAdd, store.OpRemove:
				for j := rng.Intn(4); j > 0; j-- {
					op.Triples = append(op.Triples, triple(rng.Intn(100)))
				}
			}
			rec.Ops = append(rec.Ops, op)
		}
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, next, err := DecodeRecord(frame, 0)
		if err != nil || next != len(frame) {
			t.Fatalf("decode: %v (read %d of %d bytes)", err, next, len(frame))
		}
		sameRecord(t, got, rec)
	})
}
