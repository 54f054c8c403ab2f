package sparql

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Cells is the JSON cell of every term of one dictionary that an answer has
// held: the term's N-Triples form as a JSON string, made by the first answer
// that holds the term and copied by every answer after — concurrent ones
// too. It only grows, and holds nothing the collector scans: one arena, and
// one span of it per ID. The zero Cells is empty and ready to use.
//
// Its arena and spans are those of ntriples.Forms, which a single document
// writer owns for the one version it writes. Cells outlives its answers and
// versions instead: it is shared by the engines over the versions of a
// dictionary, so it is locked, grows its spans as the dictionary grows, and
// holds the quoted form, which is what an answer copies.
type Cells struct {
	mu    sync.Mutex
	arena []byte
	// span[id] is where id's cell sits in arena; its end is 0 until the cell
	// is made (no cell is empty).
	span [][2]uint32
	nt   []byte // a term's N-Triples form, on its way into arena
}

// SetCells makes e's SELECT answers copy their cells from c, which must be
// the cells of the dictionary of e's store and of no other: the engines over
// the versions of one store can share it. Returns e.
func (e *Engine) SetCells(c *Cells) *Engine {
	e.cells = c
	return e
}

// cover makes the cells c lacks of the dictionary IDs r projects, all under
// one acquisition of the lock, and returns the arena and the spans as they
// then are. Nothing written later moves what they hold: a later answer
// appends past the arena's end, and fills spans no earlier one reads.
func (c *Cells) cover(r *Result) (arena []byte, span [][2]uint32) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	last := store.ID(r.terms.dict.Len())
	for i := 0; i < r.rows.n; i++ {
		row := r.rows.row(i)
		for _, col := range r.cols {
			id := row[col]
			if id == store.NoID || id > last {
				continue // unbound, or a scratch ID: the answer renders it
			}
			if int(id) >= len(c.span) {
				c.span = append(c.span, make([][2]uint32, int(last)+1-len(c.span))...)
			}
			if c.span[id][1] == 0 {
				start := len(c.arena)
				c.nt = rdf.AppendTerm(c.nt[:0], r.terms.dict.Term(id))
				c.arena = appendJSONString(c.arena, c.nt)
				c.span[id] = [2]uint32{uint32(start), uint32(len(c.arena))}
			}
		}
	}
	return c.arena, c.span
}

// WriteJSON writes r in the SPARQL-JSON-like shape of /v1/query:
// {"boolean":…} for ASK, {"triples":…} (the N-Triples document) for
// CONSTRUCT and DESCRIBE, and for SELECT
// {"head":{"vars":[…]},"results":[{var:term,…},…]} with each term in its
// N-Triples form. The ASK, CONSTRUCT and DESCRIBE bodies are the bytes a
// json.Encoder writes of them.
//
// A SELECT can run to thousands of rows, so its body is appended to one
// buffer, each row's keys in projection order, and written to w as the
// buffer fills. A cell is a copy of the engine's Cells (see SetCells); a term
// that has none there — a BIND or aggregate value, or any term of an engine
// without Cells — is rendered where it is written.
func (r *Result) WriteJSON(w io.Writer) error {
	switch r.Kind {
	case Ask:
		return json.NewEncoder(w).Encode(map[string]any{"boolean": r.Bool})
	case Construct, Describe:
		return json.NewEncoder(w).Encode(map[string]any{"triples": ntriples.Format(r.Graph)})
	}
	const flushAt = 32 << 10
	buf := make([]byte, 0, min(flushAt+512, 128+64*len(r.Vars)*(1+r.Len())))
	keys := make([][]byte, len(r.Vars))
	buf = append(buf, `{"head":{"vars":[`...)
	for i, v := range r.Vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, []byte(v))
		// A variable projected twice is one key of a row: only its first
		// mention gets one.
		if !slices.Contains(r.Vars[:i], v) {
			keys[i] = append(appendJSONString(nil, []byte(v)), ':')
		}
	}
	buf = append(buf, `]},"results":[`...)
	arena, span := r.cells.cover(r)
	var nt []byte // a cell's N-Triples form, when it has no cell in arena
	for i := 0; i < r.rows.n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		row := r.rows.row(i)
		first := true
		for k, col := range r.cols {
			id := row[col]
			if id == store.NoID || keys[k] == nil {
				continue // unbound, or a variable projected before
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, keys[k]...)
			if int(id) < len(span) && span[id][1] != 0 {
				buf = append(buf, arena[span[id][0]:span[id][1]]...)
			} else {
				nt = rdf.AppendTerm(nt[:0], r.terms.term(id))
				buf = appendJSONString(buf, nt)
			}
		}
		buf = append(buf, '}')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(append(buf, "]}\n"...))
	return err
}

// appendJSONString appends s as a JSON string literal. Bytes that are not
// valid UTF-8 become U+FFFD, as encoding/json writes them.
func appendJSONString(buf, s []byte) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRune(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		buf = append(buf, s[start:i]...)
		switch {
		case c >= utf8.RuneSelf:
			buf = append(buf, `\ufffd`...)
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
