package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindAudit carries an opaque side payload in Data (the G-SACS audit
	// trail), riding the same durability machinery without the wal package
	// knowing its schema.
	KindAudit Kind = 5
	// KindCommit is one store commit: the ops of one Apply or ApplyBatch, in
	// apply order, and the generation they were applied against. A commit
	// lives in a single frame, so the one-frame atomicity the torn-tail repair
	// provides makes replay all-or-nothing — recovery can never resurrect half
	// a commit. Kinds 1–4 and 6 were the record shapes of the previous log
	// format and decode as ErrCorrupt.
	KindCommit Kind = 7
)

func (k Kind) String() string {
	switch k {
	case KindAudit:
		return "audit"
	case KindCommit:
		return "commit"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one WAL entry: a commit or an audit payload.
type Record struct {
	Kind Kind
	// Gen is the store generation a commit was applied against: replay
	// applies it to a store at exactly that generation (see ApplyRecord).
	Gen  uint64
	Ops  []store.Op // KindCommit, in apply order
	Data []byte     // KindAudit payload
}

// On-disk frame: uint32 LE payload length, uint32 LE CRC32C of the payload,
// then the payload. The payload is kind (1 byte) and generation (uvarint),
// then for a commit the op count (uvarint) and per op its code (1 byte),
// triple count (uvarint) and length-prefixed N-Triples statements; for an
// audit record one length-prefixed opaque blob.
const frameHeaderLen = 8

// Op codes on disk. They are the log's own numbering, so renumbering
// store.OpKind can never reinterpret a log.
const (
	codeAdd     byte = 1
	codeRemove  byte = 2
	codeReplace byte = 3
	codeClear   byte = 4
)

var (
	opCodes = map[store.OpKind]byte{store.OpAdd: codeAdd, store.OpRemove: codeRemove,
		store.OpReplace: codeReplace, store.OpClear: codeClear}
	opKinds = map[byte]store.OpKind{codeAdd: store.OpAdd, codeRemove: store.OpRemove,
		codeReplace: store.OpReplace, codeClear: store.OpClear}
)

// maxRecordBytes bounds a single record so a corrupt length prefix cannot
// force a giant allocation during recovery.
const maxRecordBytes = 64 << 20

// castagnoli is the CRC32C table (the checksum polynomial used by iSCSI,
// ext4 and most modern WAL implementations; hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTorn reports an incomplete final record: the frame claims more
	// bytes than the file holds. Recovery truncates it away.
	ErrTorn = errors.New("wal: torn record at log tail")
	// ErrCorrupt reports a record whose checksum or structure is invalid —
	// recovery refuses rather than load silently-corrupt data.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// encodeRecord renders the full frame (header + payload) for r.
func encodeRecord(r Record) ([]byte, error) {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+64)
	frame = append(frame, byte(r.Kind))
	frame = binary.AppendUvarint(frame, r.Gen)
	switch r.Kind {
	case KindCommit:
		if len(r.Ops) == 0 {
			return nil, fmt.Errorf("wal: commit record needs at least one op")
		}
		frame = binary.AppendUvarint(frame, uint64(len(r.Ops)))
		var line []byte
		for i, op := range r.Ops {
			code, ok := opCodes[op.Kind]
			if !ok {
				return nil, fmt.Errorf("wal: op %d: unloggable kind %v", i, op.Kind)
			}
			if op.Kind == store.OpReplace && len(op.Triples) != 2 {
				return nil, fmt.Errorf("wal: op %d: replace needs [old, new], got %d triples", i, len(op.Triples))
			}
			frame = append(frame, code)
			frame = binary.AppendUvarint(frame, uint64(len(op.Triples)))
			for _, t := range op.Triples {
				line = rdf.AppendTriple(line[:0], t)
				frame = binary.AppendUvarint(frame, uint64(len(line)))
				frame = append(frame, line...)
			}
		}
	case KindAudit:
		frame = binary.AppendUvarint(frame, uint64(len(r.Data)))
		frame = append(frame, r.Data...)
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
	payload := frame[frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

// frameAt verifies the length header and CRC32C of the frame starting at
// off and returns the raw frame bytes (header included) plus the next
// offset — without parsing the payload. The streaming read path uses this
// to slice frames out of segments cheaply; full structural validation
// happens on the receiving side via DecodeRecord.
func frameAt(buf []byte, off int) ([]byte, int, error) {
	rest := buf[off:]
	if len(rest) < frameHeaderLen {
		return nil, off, fmt.Errorf("%w: %d trailing bytes, need %d for a frame header",
			ErrTorn, len(rest), frameHeaderLen)
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	crc := binary.LittleEndian.Uint32(rest[4:8])
	if n == 0 {
		// A written frame is never empty; zero-length frames are the
		// zero-fill signature some filesystems leave after a crash.
		return nil, off, fmt.Errorf("%w: zero-length frame (zero-fill tail)", ErrTorn)
	}
	if n > maxRecordBytes {
		return nil, off, fmt.Errorf("%w: frame claims %d bytes (limit %d)", ErrCorrupt, n, maxRecordBytes)
	}
	if len(rest) < frameHeaderLen+int(n) {
		return nil, off, fmt.Errorf("%w: frame claims %d bytes, only %d remain",
			ErrTorn, n, len(rest)-frameHeaderLen)
	}
	payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, off, fmt.Errorf("%w: checksum mismatch at offset %d (stored %08x, computed %08x)",
			ErrCorrupt, off, crc, got)
	}
	end := off + frameHeaderLen + int(n)
	return buf[off:end], end, nil
}

// DecodeRecord decodes one record from buf starting at off, returning the
// record and the offset of the next frame. io.EOF signals a clean end of
// input; ErrTorn an incomplete tail frame; ErrCorrupt a checksum or
// structure violation. Recovery and the replication follower both run every
// frame through this before applying it.
func DecodeRecord(buf []byte, off int) (Record, int, error) {
	if off == len(buf) {
		return Record{}, off, io.EOF
	}
	frame, next, err := frameAt(buf, off)
	if err != nil {
		return Record{}, off, err
	}
	rec, err := decodePayload(frame[frameHeaderLen:])
	if err != nil {
		return Record{}, off, err
	}
	return rec, next, nil
}

// decodePayload parses a checksum-verified payload. Structural errors are
// still ErrCorrupt: the checksum matched, but the bytes are not a record we
// ever wrote.
func decodePayload(payload []byte) (Record, error) {
	d := payloadReader{p: payload}
	rec := Record{Kind: Kind(d.u8("kind"))}
	rec.Gen = d.uvarint("generation")
	switch rec.Kind {
	case KindCommit:
		n := d.count("op count")
		if n == 0 && d.err == nil {
			d.fail("commit record has no ops")
		}
		rec.Ops = make([]store.Op, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			rec.Ops = append(rec.Ops, d.op(i))
		}
	case KindAudit:
		rec.Data = append([]byte(nil), d.blob("audit payload")...)
	default:
		d.fail("unknown record kind %d", uint8(rec.Kind))
	}
	if d.err == nil && len(d.p) != 0 {
		d.fail("%d stray bytes after the record", len(d.p))
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return rec, nil
}

// payloadReader consumes a payload front to back. The first structural error
// sticks: every later read returns zero values, so a decoder checks err once.
type payloadReader struct {
	p   []byte
	err error
}

func (d *payloadReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *payloadReader) u8(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.p) == 0 {
		d.fail("missing %s", what)
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *payloadReader) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, used := binary.Uvarint(d.p)
	if used <= 0 {
		d.fail("bad %s varint", what)
		return 0
	}
	d.p = d.p[used:]
	return v
}

// count reads an item count, refusing one the remaining bytes cannot hold
// (every item takes at least one byte), so a corrupt count cannot force a
// giant allocation.
func (d *payloadReader) count(what string) int {
	n := d.uvarint(what)
	if n > uint64(len(d.p)) {
		d.fail("%s %d exceeds the %d remaining bytes", what, n, len(d.p))
		return 0
	}
	return int(n)
}

// blob reads one length-prefixed byte string, aliasing the payload.
func (d *payloadReader) blob(what string) []byte {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.p)) {
		d.fail("%s claims %d bytes, %d remain", what, n, len(d.p))
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

// op reads the i-th op of a commit.
func (d *payloadReader) op(i int) store.Op {
	code := d.u8("op code")
	kind, ok := opKinds[code]
	if !ok && d.err == nil {
		d.fail("op %d: unknown op code %d", i, code)
	}
	n := d.count("triple count")
	switch {
	case d.err != nil:
		return store.Op{}
	case kind == store.OpReplace && n != 2:
		d.fail("op %d: replace has %d triples, want 2", i, n)
	case kind == store.OpClear && n != 0:
		d.fail("op %d: clear has %d triples, want none", i, n)
	}
	op := store.Op{Kind: kind, Triples: make([]rdf.Triple, 0, n)}
	for j := 0; j < n && d.err == nil; j++ {
		line := d.blob("triple")
		if d.err != nil {
			break
		}
		t, err := parseTripleLine(string(line))
		if err != nil {
			d.fail("op %d, triple %d: %v", i, j, err)
			break
		}
		op.Triples = append(op.Triples, t)
	}
	return op
}

// parseTripleLine parses exactly one N-Triples statement.
func parseTripleLine(line string) (rdf.Triple, error) {
	r := ntriples.NewReader(strings.NewReader(line))
	t, err := r.Read()
	if err != nil {
		return rdf.Triple{}, err
	}
	if _, err := r.Read(); err != io.EOF {
		return rdf.Triple{}, fmt.Errorf("more than one statement in record item")
	}
	return t, nil
}
