package grdf

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Spatial filter-function IRIs usable in SPARQL queries once registered:
//
//	FILTER(grdf:within(?feature, ?container))
//	FILTER(grdf:intersects(?a, ?b))
//	FILTER(grdf:distance(?a, ?b) < 500)
const (
	FnWithin     rdf.IRI = NS + "within"
	FnIntersects rdf.IRI = NS + "intersects"
	FnContains   rdf.IRI = NS + "contains"
	FnDistance   rdf.IRI = NS + "distance"
)

// errNoGeometry is what a spatial function answers for a term the version
// holds no geometry for; SPARQL turns it into an eliminated row.
var errNoGeometry = errors.New("grdf: term has no resolvable geometry")

// RegisterSpatialFuncs installs the grdf: spatial filter functions on an
// engine. Geometry arguments may be feature terms (resolved through their
// geometry properties) or geometry nodes; both are looked up in the spatial
// index of a store version (IndexOf), not decoded per row.
//
// st is the store geometries are resolved against. When it is the store the
// engine evaluates over — the usual case — every evaluation resolves them in
// the version it pinned (inside a GRAPH pattern, in the graph being matched),
// so a row is never judged by a geometry written after the row was read, and
// the functions are registered with index probers (sparql.Prober): a FILTER
// on one of them against a constant seeds the join from the index. When st
// is some other store (a merged view beside a dataset), geometries come from
// its current version and nothing is probed: its IDs mean nothing to the
// engine's joins.
func RegisterSpatialFuncs(e *sparql.Engine, st *store.Store) {
	own := e.Store() == store.Reader(st)
	// indexed returns the version geometries come from, with its index.
	indexed := func(at store.StoreView) (store.StoreView, *SpatialIndex) {
		if !own {
			at = st.View()
		}
		return at, IndexOf(at)
	}
	resolve := func(at store.StoreView, ix *SpatialIndex, t rdf.Term) (geom.Geometry, error) {
		if id, ok := at.LookupID(t); ok {
			if g, ok := ix.Geometry(id); ok {
				return g, nil
			}
		}
		return nil, errNoGeometry
	}
	binary := func(name string, value func(a, b geom.Geometry) rdf.Term) sparql.CustomFunc {
		return func(at store.StoreView, args []rdf.Term) (rdf.Term, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("grdf: %s takes 2 arguments", name)
			}
			at, ix := indexed(at)
			a, err := resolve(at, ix, args[0])
			if err != nil {
				return nil, err
			}
			b, err := resolve(at, ix, args[1])
			if err != nil {
				return nil, err
			}
			return value(a, b), nil
		}
	}
	relation := func(pred func(a, b geom.Geometry) bool) func(a, b geom.Geometry) rdf.Term {
		return func(a, b geom.Geometry) rdf.Term { return rdf.NewBoolean(pred(a, b)) }
	}
	e.RegisterFunc(FnWithin, binary("within", relation(geom.Within)))
	e.RegisterFunc(FnIntersects, binary("intersects", relation(geom.Intersects)))
	e.RegisterFunc(FnContains, binary("contains", relation(geom.Contains)))
	e.RegisterFunc(FnDistance, binary("distance", func(a, b geom.Geometry) rdf.Term {
		return rdf.NewDouble(geom.Distance(a, b))
	}))
	if !own {
		return
	}
	// All four functions are false, or infinite, for geometries whose boxes
	// are apart (further than r apart, for distance): the terms near k's box
	// are a superset of what any of them accepts.
	near := func(at store.StoreView, k rdf.Term, r float64) []store.ID {
		ix := IndexOf(at)
		g, err := resolve(at, ix, k)
		if err != nil {
			return nil // the function fails on every row
		}
		return ix.near(g, r)
	}
	for _, fn := range []rdf.IRI{FnWithin, FnIntersects, FnContains} {
		e.RegisterProber(fn, sparql.Prober{Candidates: near})
	}
	e.RegisterProber(FnDistance, sparql.Prober{Measure: true, Candidates: near})
}

// NewEngine builds a SPARQL engine over st with the spatial functions
// pre-registered — the standard query entry point for GRDF datasets.
func NewEngine(st *store.Store) *sparql.Engine {
	e := sparql.NewEngine(st)
	RegisterSpatialFuncs(e, st)
	return e
}
