// Package ntriples implements the N-Triples line-oriented RDF interchange
// format (reader and writer). It is the lowest common denominator codec used
// by the test suite to round-trip graphs and by the benchmark harness to load
// bulk data.
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

// Reader parses N-Triples documents.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next triple, or io.EOF at end of input.
func (r *Reader) Read() (rdf.Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := r.parseLine(line)
		if err != nil {
			return rdf.Triple{}, err
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{}, io.EOF
}

// ReadAll reads every triple into a graph.
func (r *Reader) ReadAll() (*rdf.Graph, error) {
	g := rdf.NewGraph()
	for {
		t, err := r.Read()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return g, err
		}
		g.Add(t)
	}
}

// ParseString parses a complete N-Triples document from a string.
func ParseString(doc string) (*rdf.Graph, error) {
	return NewReader(strings.NewReader(doc)).ReadAll()
}

func (r *Reader) errf(format string, args ...any) error {
	return &ParseError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func (r *Reader) parseLine(line string) (rdf.Triple, error) {
	pos := 0
	subj, pos, err := r.parseTerm(line, pos)
	if err != nil {
		return rdf.Triple{}, err
	}
	pos = skipWS(line, pos)
	pred, pos, err := r.parseTerm(line, pos)
	if err != nil {
		return rdf.Triple{}, err
	}
	pos = skipWS(line, pos)
	obj, pos, err := r.parseTerm(line, pos)
	if err != nil {
		return rdf.Triple{}, err
	}
	pos = skipWS(line, pos)
	if pos >= len(line) || line[pos] != '.' {
		return rdf.Triple{}, r.errf("expected '.' terminator, got %q", rest(line, pos))
	}
	if tail := strings.TrimSpace(line[pos+1:]); tail != "" && !strings.HasPrefix(tail, "#") {
		return rdf.Triple{}, r.errf("trailing content %q", tail)
	}
	t, err := rdf.NewTriple(subj, pred, obj)
	if err != nil {
		return rdf.Triple{}, r.errf("%v", err)
	}
	return t, nil
}

func (r *Reader) parseTerm(line string, pos int) (rdf.Term, int, error) {
	if pos >= len(line) {
		return nil, pos, r.errf("unexpected end of line")
	}
	switch line[pos] {
	case '<':
		end := strings.IndexByte(line[pos:], '>')
		if end < 0 {
			return nil, pos, r.errf("unterminated IRI")
		}
		iri := line[pos+1 : pos+end]
		return rdf.IRI(unescape(iri)), pos + end + 1, nil
	case '_':
		if pos+1 >= len(line) || line[pos+1] != ':' {
			return nil, pos, r.errf("malformed blank node at %q", rest(line, pos))
		}
		end := pos + 2
		for end < len(line) && !isWS(line[end]) {
			end++
		}
		label := line[pos+2 : end]
		if label == "" {
			return nil, pos, r.errf("empty blank node label")
		}
		return rdf.BlankNode(label), end, nil
	case '"':
		val, next, err := r.parseQuoted(line, pos)
		if err != nil {
			return nil, pos, err
		}
		lit := rdf.Literal{Value: val, Datatype: rdf.XSDString}
		if next < len(line) && line[next] == '@' {
			end := next + 1
			for end < len(line) && !isWS(line[end]) && line[end] != '.' {
				end++
			}
			lit = rdf.NewLangString(val, line[next+1:end])
			return lit, end, nil
		}
		if next+1 < len(line) && line[next] == '^' && line[next+1] == '^' {
			if next+2 >= len(line) || line[next+2] != '<' {
				return nil, pos, r.errf("malformed datatype IRI")
			}
			end := strings.IndexByte(line[next+2:], '>')
			if end < 0 {
				return nil, pos, r.errf("unterminated datatype IRI")
			}
			lit.Datatype = rdf.IRI(line[next+3 : next+2+end])
			return lit, next + 2 + end + 1, nil
		}
		return lit, next, nil
	default:
		return nil, pos, r.errf("unexpected character %q", line[pos])
	}
}

// parseQuoted parses a double-quoted string starting at pos (line[pos]=='"')
// and returns the unescaped value and the index after the closing quote.
func (r *Reader) parseQuoted(line string, pos int) (string, int, error) {
	var sb strings.Builder
	i := pos + 1
	for i < len(line) {
		c := line[i]
		switch c {
		case '"':
			return sb.String(), i + 1, nil
		case '\\':
			if i+1 >= len(line) {
				return "", i, r.errf("dangling escape")
			}
			i++
			switch line[i] {
			case 't':
				sb.WriteByte('\t')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			case 'u', 'U':
				width := 4
				if line[i] == 'U' {
					width = 8
				}
				if i+width >= len(line) {
					return "", i, r.errf("truncated \\%c escape", line[i])
				}
				var cp rune
				if _, err := fmt.Sscanf(line[i+1:i+1+width], "%x", &cp); err != nil {
					return "", i, r.errf("bad unicode escape: %v", err)
				}
				sb.WriteRune(cp)
				i += width
			default:
				return "", i, r.errf("unknown escape \\%c", line[i])
			}
			i++
		default:
			_, size := utf8.DecodeRuneInString(line[i:])
			sb.WriteString(line[i : i+size])
			i += size
		}
	}
	return "", i, r.errf("unterminated string literal")
}

func unescape(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' && i+1 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
			width := 4
			if s[i+1] == 'U' {
				width = 8
			}
			if i+2+width <= len(s) {
				var cp rune
				if _, err := fmt.Sscanf(s[i+2:i+2+width], "%x", &cp); err == nil {
					sb.WriteRune(cp)
					i += 2 + width
					continue
				}
			}
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

func skipWS(line string, pos int) int {
	for pos < len(line) && isWS(line[pos]) {
		pos++
	}
	return pos
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

// WriteTriples serializes ts as Write serializes a graph holding them. Every
// statement is formatted once, into one buffer, and the lines are sorted as
// slices of it.
func WriteTriples(w io.Writer, ts []rdf.Triple) error {
	buf := make([]byte, 0, 128*len(ts))
	ends := make([]int, len(ts))
	for i, t := range ts {
		buf = append(rdf.AppendTriple(buf, t), '\n')
		ends[i] = len(buf)
	}
	lines := make([][]byte, len(ts))
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
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		if _, err := bw.Write(l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format renders the graph as an N-Triples string.
func Format(g *rdf.Graph) string {
	var sb strings.Builder
	// Write to a strings.Builder cannot fail.
	_ = Write(&sb, g)
	return sb.String()
}
