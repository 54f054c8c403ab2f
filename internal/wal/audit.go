package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// The audit trail's file. Audit entries are node-local diagnostics, not
// data, so they stay out of the commit stream: they live in audit.log beside
// the segments, are never streamed, snapshotted or counted toward
// SnapshotEvery, and are appended under the file's own lock, never the
// log's. Each entry is one frame, as a record is; a torn tail is cut at
// Open. Past auditRotateBytes the file becomes audit.log.1, replacing the
// one before. The file is not fsynced: an entry whose write returned
// survives the process being killed, not a power loss.

const (
	auditName        = "audit.log"
	auditRotateBytes = 4 << 20
)

// auditFile is the open audit.log.
type auditFile struct {
	mu   sync.Mutex
	f    File // nil once closed
	size int64
}

// openAudit cuts audit.log after its last whole frame and opens it for
// appending.
func (r *Repository) openAudit() error {
	name := filepath.Join(r.dir, auditName)
	buf, err := readAll(r.fsys, name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("wal: read audit log: %w", err)
	}
	if whole, err := walkFrames(buf, func([]byte) {}); err != nil {
		r.logger.Warn("wal: truncating audit log tail", "offset", whole, "err", err)
		if err := r.truncateSegment(name, int64(whole)); err != nil {
			return fmt.Errorf("wal: truncate audit log: %w", err)
		}
		buf = buf[:whole]
	}
	f, err := r.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open audit log: %w", err)
	}
	r.audit.f, r.audit.size = f, int64(len(buf))
	return nil
}

// walkFrames calls fn with the payload of every whole frame at the head of
// buf. It returns where they end and, when that is short of len(buf), why.
func walkFrames(buf []byte, fn func(payload []byte)) (int, error) {
	off := 0
	for off < len(buf) {
		frame, next, err := frameAt(buf, off)
		if err != nil {
			return off, err
		}
		fn(frame[frameHeaderLen:])
		off = next
	}
	return off, nil
}

// AppendAudit appends one opaque audit payload to the audit file. A failed
// write is cut back out, best effort (Open cuts what is left), and returned;
// the commit log is not involved either way.
func (r *Repository) AppendAudit(data []byte) error {
	frame, err := seal(append(make([]byte, frameHeaderLen, frameHeaderLen+len(data)), data...))
	if err != nil {
		return err
	}
	a := &r.audit
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return errClosed
	}
	name := filepath.Join(r.dir, auditName)
	if a.size > 0 && a.size+int64(len(frame)) > auditRotateBytes {
		if err := r.fsys.Rename(name, name+".1"); err != nil {
			return fmt.Errorf("wal: rotate audit log: %w", err)
		}
		f, err := r.fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: rotate audit log: %w", err)
		}
		a.f.Close()
		a.f, a.size = f, 0
	}
	if _, err := a.f.Write(frame); err != nil {
		r.truncateSegment(name, a.size)
		return fmt.Errorf("wal: audit append: %w", err)
	}
	a.size += int64(len(frame))
	return nil
}

// AuditReplay returns the audit payloads on disk, oldest first — audit.log.1's
// then audit.log's — so the caller can restore its audit trail.
func (r *Repository) AuditReplay() [][]byte {
	r.audit.mu.Lock()
	defer r.audit.mu.Unlock()
	var out [][]byte
	for _, name := range [...]string{auditName + ".1", auditName} {
		buf, _ := readAll(r.fsys, filepath.Join(r.dir, name)) // absent: nothing to restore
		walkFrames(buf, func(p []byte) { out = append(out, p) })
	}
	return out
}
