// Package ntriples implements the N-Triples line-oriented RDF interchange
// format and its N-Quads extension, parser and writer. One function parses a
// statement — ParseTriple, on the text of one line — and one loop splits a
// document into its lines; the write-ahead log, snapshots, /v1/mutate and
// every document parse go through them.
package ntriples

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// ParseTriple parses one N-Triples statement: the text of one line, without
// its line break. Its errors report line 1. The IRIs, blank node labels and
// language tags of the triple are windows on line (a literal's value is a
// copy), so a caller whose line is part of a larger buffer passes a copy of
// the line, as the WAL decoder does.
func ParseTriple(line string) (rdf.Triple, error) {
	if strings.IndexByte(line, '\n') >= 0 {
		return rdf.Triple{}, &ParseError{Line: 1, Msg: "line break inside a statement"}
	}
	q, err := parseStatement(line, 1, false, false)
	return q.Triple, err
}

// ParseTriples parses an N-Triples document into its statements in document
// order; a statement written twice is returned twice.
func ParseTriples(doc string) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := parseLines(doc, false, func(q rdf.Quad) { ts = append(ts, q.Triple) })
	return ts, err
}

// ParseString parses a complete N-Triples document from a string.
func ParseString(doc string) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	err := parseLines(doc, false, func(q rdf.Quad) { g.Add(q.Triple) })
	return g, err
}

// parseLines hands emit the statement of every line of doc that is neither
// blank nor a comment, in order, with its graph label when quads is set.
// Every string of a term it hands out is a copy: a term that a store's
// dictionary keeps must not keep the whole document (a /v1/mutate body, a
// file) alive.
func parseLines(doc string, quads bool, emit func(rdf.Quad)) error {
	for n := 1; doc != ""; n++ {
		var line string
		line, doc, _ = strings.Cut(doc, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		q, err := parseStatement(line, n, quads, true)
		if err != nil {
			return err
		}
		emit(q)
	}
	return nil
}

// parseStatement parses the statement on line n: subject, predicate and
// object, then — when quads is set and something other than the dot
// follows — a graph label, then the dot and at most a comment. With own set,
// the strings of the terms are copies, not windows on line.
func parseStatement(line string, n int, quads, own bool) (rdf.Quad, error) {
	s := statement{line: line, n: n, own: own}
	subj, err := s.term()
	if err != nil {
		return rdf.Quad{}, err
	}
	pred, err := s.term()
	if err != nil {
		return rdf.Quad{}, err
	}
	obj, err := s.term()
	if err != nil {
		return rdf.Quad{}, err
	}
	s.skipWS()
	var graph rdf.Term
	if quads && s.pos < len(line) && line[s.pos] != '.' {
		if graph, err = s.term(); err != nil {
			return rdf.Quad{}, err
		}
		if _, ok := graph.(rdf.IRI); !ok {
			return rdf.Quad{}, s.errf("graph label must be an IRI")
		}
		s.skipWS()
	}
	if s.pos >= len(line) || line[s.pos] != '.' {
		return rdf.Quad{}, s.errf("expected '.' terminator, got %q", rest(line, s.pos))
	}
	if tail := strings.TrimSpace(line[s.pos+1:]); tail != "" && tail[0] != '#' {
		return rdf.Quad{}, s.errf("trailing content %q", tail)
	}
	t, err := rdf.NewTriple(subj, pred, obj)
	if err != nil {
		return rdf.Quad{}, s.errf("%v", err)
	}
	return rdf.Quad{Triple: t, Graph: graph}, nil
}

// statement is a cursor over the text of one statement on line n.
type statement struct {
	line string
	pos  int
	n    int
	own  bool // copy what a term keeps of line (see keep)
}

// keep returns the part of line a term keeps: a copy when s owns its terms.
func (s *statement) keep(part string) string {
	if s.own {
		return strings.Clone(part)
	}
	return part
}

func (s *statement) errf(format string, args ...any) error {
	return &ParseError{Line: s.n, Msg: fmt.Sprintf(format, args...)}
}

func (s *statement) skipWS() {
	for s.pos < len(s.line) && isWS(s.line[s.pos]) {
		s.pos++
	}
}

// term reads the term after the cursor's blanks.
func (s *statement) term() (rdf.Term, error) {
	s.skipWS()
	line, pos := s.line, s.pos
	if pos >= len(line) {
		return nil, s.errf("unexpected end of line")
	}
	switch line[pos] {
	case '<':
		return s.iri("unterminated IRI")
	case '_':
		if pos+1 >= len(line) || line[pos+1] != ':' {
			return nil, s.errf("malformed blank node at %q", rest(line, pos))
		}
		end := pos + 2
		for end < len(line) && !isWS(line[end]) {
			end++
		}
		if end == pos+2 {
			return nil, s.errf("empty blank node label")
		}
		s.pos = end
		return rdf.BlankNode(s.keep(line[pos+2 : end])), nil
	case '"':
		return s.literal()
	}
	return nil, s.errf("unexpected character %q", line[pos])
}

// iri reads the IRI whose '<' is at the cursor.
func (s *statement) iri(unterminated string) (rdf.IRI, error) {
	end := strings.IndexByte(s.line[s.pos:], '>')
	if end < 0 {
		return "", s.errf("%s", unterminated)
	}
	iri, err := rdf.UnescapeIRI(s.line[s.pos+1 : s.pos+end])
	if err != nil {
		return "", s.errf("%v", err)
	}
	s.pos += end + 1
	return rdf.IRI(s.keep(string(iri))), nil
}

// literal reads the literal whose opening quote is at the cursor, with its
// language tag or datatype.
func (s *statement) literal() (rdf.Term, error) {
	val, err := s.quoted()
	if err != nil {
		return nil, err
	}
	line, next := s.line, s.pos
	if next < len(line) && line[next] == '@' {
		end := next + 1
		for end < len(line) && !isWS(line[end]) && line[end] != '.' {
			end++
		}
		s.pos = end
		return rdf.NewLangString(val, s.keep(line[next+1:end])), nil
	}
	if !strings.HasPrefix(line[next:], "^^") {
		return rdf.Literal{Value: val, Datatype: rdf.XSDString}, nil
	}
	if !strings.HasPrefix(line[next+2:], "<") {
		return nil, s.errf("malformed datatype IRI")
	}
	s.pos = next + 2
	dt, err := s.iri("unterminated datatype IRI")
	if err != nil {
		return nil, err
	}
	if dt == "" {
		return nil, s.errf("empty datatype IRI")
	}
	return rdf.Literal{Value: val, Datatype: dt}, nil
}

// quoted reads the string whose opening quote is at the cursor and returns
// its value: escapes decoded, and each byte that is not part of a UTF-8
// sequence read as U+FFFD, which is what the writer writes for it. The value
// is a copy, so a literal the store's dictionary keeps does not keep the
// whole line alive.
func (s *statement) quoted() (string, error) {
	line := s.line
	var buf []byte
	from := s.pos + 1
	for i := from; i < len(line); {
		c := line[i]
		switch {
		case c == '"':
			s.pos = i + 1
			if buf == nil {
				return strings.Clone(line[from:i]), nil
			}
			return string(append(buf, line[from:i]...)), nil
		case c == '\\':
			if i+1 >= len(line) {
				return "", s.errf("dangling escape")
			}
			var r rune
			n := 2
			switch e := line[i+1]; e {
			case 't':
				r = '\t'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case '"', '\\':
				r = rune(e)
			case 'u', 'U':
				var err error
				if r, n, err = rdf.DecodeUCHAR(line[i:]); err != nil {
					return "", s.errf("%v", err)
				}
			default:
				return "", s.errf("unknown escape \\%c", e)
			}
			buf = utf8.AppendRune(append(buf, line[from:i]...), r)
			i += n
			from = i
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(line[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(append(buf, line[from:i]...), r)
				from = i + 1
			}
			i += size
		}
	}
	return "", s.errf("unterminated string literal")
}

func isWS(c byte) bool { return c == ' ' || c == '\t' }

func rest(line string, pos int) string {
	if pos >= len(line) {
		return ""
	}
	if len(line)-pos > 20 {
		return line[pos:pos+20] + "…"
	}
	return line[pos:]
}

// Write serializes the graph to w, one triple per line, in stable sorted
// order so that output is deterministic.
func Write(w io.Writer, g *rdf.Graph) error { return WriteTriples(w, g.Triples()) }

// WriteTriples serializes ts as Write serializes a graph holding them.
func WriteTriples(w io.Writer, ts []rdf.Triple) error {
	bw := bufio.NewWriter(w)
	if err := writeSorted(bw, ts, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSorted writes ts one statement per line, in sorted order, each with
// the graph label graph unless it is nil. Every statement is formatted once,
// into one buffer, and the lines are sorted as slices of it.
func writeSorted(bw *bufio.Writer, ts []rdf.Triple, graph rdf.Term) error {
	buf := make([]byte, 0, 128*len(ts))
	ends := make([]int, len(ts))
	for i, t := range ts {
		buf = rdf.AppendTriple(buf, t)
		if graph != nil {
			// Put the label between the object and the dot.
			buf = append(rdf.AppendTerm(buf[:len(buf)-1], graph), " ."...)
		}
		buf = append(buf, '\n')
		ends[i] = len(buf)
	}
	for _, l := range sortedLines(buf, ends) {
		if _, err := bw.Write(l); err != nil {
			return err
		}
	}
	return nil
}

// sortedLines cuts buf into the lines ending at ends, each with its newline,
// and sorts them.
func sortedLines(buf []byte, ends []int) [][]byte {
	lines := make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		lines[i] = buf[start:end]
		start = end
	}
	// The newline is left out of the comparison: it would sort a line ahead
	// of one that continues it with a control character.
	sort.Slice(lines, func(i, j int) bool {
		return bytes.Compare(lines[i][:len(lines[i])-1], lines[j][:len(lines[j])-1]) < 0
	})
	return lines
}

// Format renders the graph as an N-Triples string.
func Format(g *rdf.Graph) string {
	var sb strings.Builder
	// Write to a strings.Builder cannot fail.
	_ = Write(&sb, g)
	return sb.String()
}
