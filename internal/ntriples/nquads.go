package ntriples

import (
	"bufio"
	"io"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// N-Quads support: the line-oriented dataset format. A quad is a triple plus
// an optional graph label; label-less lines land in the default graph. This
// is how multi-source GRDF deployments (the paper's clearinghouses) exchange
// datasets with provenance intact.

// ParseQuadsString parses an N-Quads document into a dataset.
func ParseQuadsString(doc string) (*store.Dataset, error) {
	ds := store.NewDataset()
	err := parseLines(doc, true, func(q rdf.Quad) {
		if q.Graph == nil {
			ds.Default().Add(q.Triple)
			return
		}
		st, _ := ds.Graph(q.Graph.(rdf.IRI), true)
		st.Add(q.Triple)
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteQuads serializes a dataset as N-Quads in deterministic order: default
// graph first, then named graphs sorted by name.
func WriteQuads(w io.Writer, ds *store.Dataset) error {
	bw := bufio.NewWriter(w)
	if err := writeSorted(bw, ds.Default().Triples(), nil); err != nil {
		return err
	}
	for _, name := range ds.GraphNames() {
		st, _ := ds.Graph(name, false)
		if err := writeSorted(bw, st.Triples(), name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatQuads renders a dataset as an N-Quads string.
func FormatQuads(ds *store.Dataset) string {
	var sb strings.Builder
	_ = WriteQuads(&sb, ds)
	return sb.String()
}
