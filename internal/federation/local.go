package federation

import (
	"context"
	"errors"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Querier is the slice of the G-SACS decision engine a LocalSource needs;
// *gsacs.Engine satisfies it (the interface lives here so the engine package
// can depend on federation for the server wiring without a cycle).
type Querier interface {
	QueryCtx(ctx context.Context, subject, action rdf.IRI, query string) (*sparql.Result, error)
}

// LocalSource adapts an in-process engine to the Source interface. It is the
// degenerate federation member: always reachable, failing only on query
// errors or cancellation.
type LocalSource struct {
	name string
	eng  Querier
}

// NewLocalSource names an engine-backed source.
func NewLocalSource(name string, eng Querier) *LocalSource {
	return &LocalSource{name: name, eng: eng}
}

// Name implements Source.
func (s *LocalSource) Name() string { return s.name }

// Query implements Source by evaluating against the local engine and
// rendering the result into the wire shape. Apart from cancellation and
// deadlines, a local failure is deterministic (parse or evaluation error),
// so it is marked terminal: retrying it cannot help.
func (s *LocalSource) Query(ctx context.Context, role, action rdf.IRI, query string) (*Result, error) {
	res, err := s.eng.QueryCtx(ctx, role, action, query)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, err
		}
		return nil, MarkTerminal(err)
	}
	return FromSPARQL(res), nil
}

// FromSPARQL renders an in-process query result into the wire shape — the
// same rendering the v1 HTTP handler uses, so local and remote sources are
// indistinguishable to the merge.
func FromSPARQL(res *sparql.Result) *Result {
	switch res.Kind {
	case sparql.Ask:
		return &Result{Kind: KindAsk, Boolean: res.Bool}
	case sparql.Construct, sparql.Describe:
		out := &Result{Kind: KindGraph}
		for _, t := range res.Graph.Triples() {
			out.Triples = append(out.Triples, t.String())
		}
		return out
	default:
		out := &Result{Kind: KindSelect, Vars: make([]string, len(res.Vars))}
		for i, v := range res.Vars {
			out.Vars[i] = string(v)
		}
		out.Rows = make([]map[string]string, res.Len())
		for i := range out.Rows {
			row := make(map[string]string, len(res.Vars))
			for c, v := range res.Vars {
				if t := res.Term(i, c); t != nil {
					row[string(v)] = t.String()
				}
			}
			out.Rows[i] = row
		}
		return out
	}
}
