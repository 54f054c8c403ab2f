package datagen

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/topo"
)

// HydroTopology derives the topological view of a stream network — the
// "hydrology topology" the paper's scenario stores (NCTCOG publishes stream
// *topology*, not just geometry): one Node per distinct stream endpoint
// (sources, mouths, confluences), one Edge per watercourse, each Edge
// realized by the stream's centerline.
//
// When st is non-nil the topology is additionally encoded as GRDF triples
// using the Fig. 2 vocabulary (grdf:Node, grdf:Edge, hasStartNode,
// hasEndNode, realizedBy) and committed to st with one AddAll. st must hold
// the streams' geometry nodes, which realize the edges.
func HydroTopology(ds *HydrologyDataset, st *store.Store) (*topo.Topology, *topo.Realization, error) {
	tp := topo.New()
	real := topo.NewRealization(tp)

	nodeAt := map[geom.Coord]topo.ID{}
	var nodes []topo.ID // in creation order: hn1, hn2, …
	node := func(c geom.Coord) (topo.ID, error) {
		if id, ok := nodeAt[c]; ok {
			return id, nil
		}
		id := topo.ID(fmt.Sprintf("hn%d", len(nodes)+1))
		if err := tp.AddNode(topo.Node{ID: id}); err != nil {
			return "", err
		}
		if err := real.RealizeNode(id, geom.Point{C: c}); err != nil {
			return "", err
		}
		nodeAt[c] = id
		nodes = append(nodes, id)
		return id, nil
	}

	for _, s := range ds.Streams {
		start := s.Geometry.Coords[0]
		end := s.Geometry.Coords[len(s.Geometry.Coords)-1]
		startID, err := node(start)
		if err != nil {
			return nil, nil, err
		}
		endID, err := node(end)
		if err != nil {
			return nil, nil, err
		}
		edgeID := topo.ID(s.IRI.LocalName())
		if err := tp.AddEdge(topo.Edge{ID: edgeID, Start: startID, End: endID}); err != nil {
			return nil, nil, err
		}
		if err := real.RealizeEdge(edgeID, s.Geometry); err != nil {
			return nil, nil, err
		}
	}

	if st != nil {
		if err := encodeHydroTopology(st, ds, tp, real, nodes); err != nil {
			return nil, nil, err
		}
	}
	return tp, real, nil
}

// encodeHydroTopology writes the derived topology as GRDF triples, its nodes
// in creation order, so one network always states the same triples in the
// same order.
func encodeHydroTopology(st *store.Store, ds *HydrologyDataset, tp *topo.Topology, real *topo.Realization, nodes []topo.ID) error {
	const topoNS = rdf.AppNS + "topo_"
	nodeIRI := func(id topo.ID) rdf.IRI { return rdf.IRI(topoNS + string(id)) }

	var ts []rdf.Triple
	for _, id := range nodes {
		iri := nodeIRI(id)
		// realize the node as a point
		p, _ := real.PointOf(id) // HydroTopology realized every node
		geomNode := rdf.IRI(string(iri) + "_geom")
		ts = encode(append(ts, rdf.T(iri, rdf.RDFType, grdf.TopoNode)), geomNode, p)
		ts = append(ts, rdf.T(iri, grdf.RealizedBy, geomNode))
	}
	for _, s := range ds.Streams {
		edgeIRI := rdf.IRI(topoNS + s.IRI.LocalName())
		edge, ok := tp.Edge(topo.ID(s.IRI.LocalName()))
		if !ok {
			return fmt.Errorf("datagen: edge %s missing from topology", s.IRI.LocalName())
		}
		ts = append(ts,
			rdf.T(edgeIRI, rdf.RDFType, grdf.TopoEdge),
			rdf.T(edgeIRI, grdf.HasStartNode, nodeIRI(edge.Start)),
			rdf.T(edgeIRI, grdf.HasEndNode, nodeIRI(edge.End)))
		// the edge is realized by the stream's existing geometry node
		if g, ok := st.FirstObject(s.IRI, grdf.HasGeometry); ok {
			ts = append(ts, rdf.T(edgeIRI, grdf.RealizedBy, g))
		}
	}
	st.AddAll(ts)
	return nil
}
