package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// File layout inside the data directory:
//
//	wal-<seq>.log    append-only record segments, seq ascending
//	snap-<seq>.snap  full-state snapshots; snap-N covers segments 1..N
//
// A snapshot is written only after the log has rotated past its sequence
// number, so replaying segment N+1 over snap-N is always safe: records the
// snapshot already includes are stamped below its generation and skipped.

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
	tmpSuffix      = ".tmp"
)

// snapMagic heads every snapshot file; bump the trailing digit on format
// changes. Version 2 counts the generation in commits; a version-1 snapshot
// counted triples, and reads as corrupt rather than as a wrong generation.
var snapMagic = []byte("GRDFSNAP2\n")

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, seq, segmentSuffix)
}
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix)
}

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// dirState lists the segments and snapshots present in dir, ascending.
type dirState struct {
	segments  []uint64
	snapshots []uint64
}

func listDir(fsys FS, dir string) (dirState, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return dirState{}, err
	}
	var st dirState
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		if seq, ok := parseSeq(e.Name(), segmentPrefix, segmentSuffix); ok {
			st.segments = append(st.segments, seq)
		} else if seq, ok := parseSeq(e.Name(), snapshotPrefix, snapshotSuffix); ok {
			st.snapshots = append(st.snapshots, seq)
		}
	}
	sort.Slice(st.segments, func(i, j int) bool { return st.segments[i] < st.segments[j] })
	sort.Slice(st.snapshots, func(i, j int) bool { return st.snapshots[i] < st.snapshots[j] })
	return st, nil
}

// EncodeSnapshotBytes renders the self-verifying snapshot representation:
// magic, uvarint generation, uvarint triple count, length-prefixed
// N-Triples lines, CRC32C footer. The same bytes serve as the on-disk
// snapshot file and the /v1/wal/snapshot transfer body, so a bootstrap
// transfer corrupted in transit fails the identical integrity checks a
// damaged file would at recovery.
func EncodeSnapshotBytes(gen uint64, triples []rdf.Triple) []byte {
	var body bytes.Buffer
	body.Write(snapMagic)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		body.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putUvarint(gen)
	putUvarint(uint64(len(triples)))
	for _, t := range triples {
		line := t.String()
		putUvarint(uint64(len(line)))
		body.WriteString(line)
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc32.Checksum(body.Bytes(), castagnoli))
	body.Write(footer[:])
	return body.Bytes()
}

// DecodeSnapshotBytes verifies and parses an EncodeSnapshotBytes blob.
// Any integrity violation wraps ErrCorrupt.
func DecodeSnapshotBytes(buf []byte) (gen uint64, triples []rdf.Triple, err error) {
	corrupt := func(format string, args ...any) (uint64, []rdf.Triple, error) {
		return 0, nil, fmt.Errorf("%w: snapshot: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(buf) < len(snapMagic)+4 {
		return corrupt("body of %d bytes is too short", len(buf))
	}
	if !bytes.Equal(buf[:len(snapMagic)], snapMagic) {
		return corrupt("bad magic %q (want %q)", buf[:len(snapMagic)], snapMagic)
	}
	body, footer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got := crc32.Checksum(body, castagnoli); got != binary.LittleEndian.Uint32(footer) {
		return corrupt("footer checksum mismatch (stored %08x, computed %08x)",
			binary.LittleEndian.Uint32(footer), got)
	}
	p := body[len(snapMagic):]
	gen, used := binary.Uvarint(p)
	if used <= 0 {
		return corrupt("bad generation varint")
	}
	p = p[used:]
	count, used := binary.Uvarint(p)
	if used <= 0 {
		return corrupt("bad triple count varint")
	}
	p = p[used:]
	if count > uint64(len(p)) {
		return corrupt("triple count %d exceeds body", count)
	}
	triples = make([]rdf.Triple, 0, count)
	for i := uint64(0); i < count; i++ {
		n, used := binary.Uvarint(p)
		if used <= 0 {
			return corrupt("bad line length varint (triple %d)", i)
		}
		p = p[used:]
		if n > uint64(len(p)) {
			return corrupt("triple %d claims %d bytes, %d remain", i, n, len(p))
		}
		t, err := parseTripleLine(string(p[:n]))
		if err != nil {
			return corrupt("triple %d: %v", i, err)
		}
		triples = append(triples, t)
		p = p[n:]
	}
	if len(p) != 0 {
		return corrupt("%d stray bytes after last triple", len(p))
	}
	return gen, triples, nil
}

// writeSnapshot persists the full triple set atomically: temp file, fsync,
// rename into place, parent-directory fsync. The file ends with a CRC32C
// footer over everything before it, so a half-written or bit-flipped
// snapshot is detected at load time. Returns the snapshot's byte size.
func writeSnapshot(fsys FS, dir string, seq, gen uint64, triples []rdf.Triple) (int64, error) {
	body := bytes.NewBuffer(EncodeSnapshotBytes(gen, triples))

	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot temp: %w", err)
	}
	if _, err := f.Write(body.Bytes()); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return 0, fmt.Errorf("wal: snapshot dir sync: %w", err)
	}
	return int64(body.Len()), nil
}

// loadSnapshot reads and verifies snap-<seq>. Any integrity violation
// returns an error wrapping ErrCorrupt; callers may fall back to an older
// snapshot (the GC retains one predecessor for exactly that reason).
func loadSnapshot(fsys FS, dir string, seq uint64) (gen uint64, triples []rdf.Triple, err error) {
	buf, err := readAll(fsys, filepath.Join(dir, snapshotName(seq)))
	if err != nil {
		return 0, nil, err
	}
	gen, triples, err = DecodeSnapshotBytes(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	return gen, triples, nil
}

// segmentSize stats one segment; 0 when it cannot be statted.
func segmentSize(fsys FS, dir string, seq uint64) int64 {
	fi, err := fsys.Stat(filepath.Join(dir, segmentName(seq)))
	if err != nil {
		return 0
	}
	return fi.Size()
}
