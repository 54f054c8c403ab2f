package grdf

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The feature API: a typed layer that encodes geom values as GRDF triples and
// decodes them back. The encoding follows the paper's data samples (Lists 6
// and 7): geometry nodes typed with the geometry-model classes, coordinates
// carried in the GML tuple syntax, CRS via hasSRSName.

// EncodeGeometry appends the triples describing geo, rooted at node, to ts.
// srs (may be empty) is recorded via grdf:hasSRSName.
func EncodeGeometry(ts []rdf.Triple, node rdf.Term, geo geom.Geometry, srs string) ([]rdf.Triple, error) {
	var err error
	typed := func(class rdf.IRI) { ts = append(ts, rdf.T(node, rdf.RDFType, class)) }
	coordinates := func(class rdf.IRI, cs []geom.Coord) {
		typed(class)
		ts = append(ts, rdf.T(node, Coordinates, rdf.NewString(geom.FormatCoordinates(cs))))
	}
	// member appends m as a fresh blank node linked from node by prop.
	member := func(prop rdf.IRI, m geom.Geometry) {
		if err != nil {
			return
		}
		b := rdf.NewBlankNode()
		ts = append(ts, rdf.T(node, prop, b))
		ts, err = EncodeGeometry(ts, b, m, "")
	}
	switch v := geo.(type) {
	case geom.Point:
		coordinates(Point, []geom.Coord{v.C})
	case geom.LineString:
		coordinates(LineString, v.Coords)
	case geom.LinearRing:
		coordinates(LinearRing, v.Coords)
	case geom.Polygon:
		typed(Polygon)
		member(Exterior, v.Exterior)
		for _, h := range v.Holes {
			member(Interior, h)
		}
	case geom.Envelope:
		if v.Empty {
			return append(ts, rdf.T(node, rdf.RDFType, Null)), nil
		}
		ts = envelope(ts, node, Envelope, v)
	case geom.MultiPoint:
		typed(MultiPoint)
		for _, p := range v.Points {
			member(PointMember, p)
		}
	case geom.MultiCurve:
		typed(MultiCurve)
		for _, c := range v.Curves {
			member(CurveMember, c)
		}
	case geom.MultiSurface:
		typed(MultiSurface)
		for _, p := range v.Surfaces {
			member(SurfaceMember, p)
		}
	case geom.CompositeCurve:
		typed(CompositeCurve)
		for _, m := range v.Members {
			member(CurveMember, m)
		}
	case geom.CompositeSurface:
		typed(CompositeSurface)
		for _, m := range v.Members {
			member(SurfaceMember, m)
		}
	case geom.Complex:
		typed(ComplexGeometry)
		for _, m := range v.Members {
			member(GeometryMember, m)
		}
	case geom.Solid:
		typed(Solid)
		for _, p := range v.Boundary {
			member(SolidMember, p)
		}
	default:
		return nil, fmt.Errorf("grdf: cannot encode geometry kind %s", geo.Kind())
	}
	if err != nil {
		return nil, err
	}
	return withSRS(ts, node, srs), nil
}

// envelope appends the class and corners of the non-empty envelope env
// rooted at node.
func envelope(ts []rdf.Triple, node rdf.Term, class rdf.IRI, env geom.Envelope) []rdf.Triple {
	ll, ur := env.Corners()
	return append(ts, rdf.T(node, rdf.RDFType, class),
		rdf.T(node, LowerCorner, rdf.NewString(geom.FormatCoordinates([]geom.Coord{ll}))),
		rdf.T(node, UpperCorner, rdf.NewString(geom.FormatCoordinates([]geom.Coord{ur}))))
}

// withSRS appends node's grdf:hasSRSName when srs is not empty.
func withSRS(ts []rdf.Triple, node rdf.Term, srs string) []rdf.Triple {
	if srs == "" {
		return ts
	}
	return append(ts, rdf.T(node, HasSRSName, rdf.NewString(srs)))
}

// DecodeGeometry reads the geometry rooted at node back into a geom value.
// The second result is the srsName, when present.
func DecodeGeometry(st store.Reader, node rdf.Term) (geom.Geometry, string, error) {
	return decodeGeometry(st, node, nil)
}

// geometryPath is the chain of nodes a decode has descended through, innermost
// first. Data is a graph: a member edge may lead back to a node the decode is
// already inside, and following it would never end.
type geometryPath struct {
	node rdf.Term
	up   *geometryPath
}

func (p *geometryPath) holds(node rdf.Term) bool {
	for ; p != nil; p = p.up {
		if p.node == node {
			return true
		}
	}
	return false
}

// decodeGeometry is DecodeGeometry of a node reached through above.
func decodeGeometry(st store.Reader, node rdf.Term, above *geometryPath) (geom.Geometry, string, error) {
	if above.holds(node) {
		return nil, "", fmt.Errorf("grdf: geometry node %s is a part of itself", node)
	}
	below := &geometryPath{node: node, up: above}
	srs := ""
	if v, ok := st.FirstObject(node, HasSRSName); ok {
		if lit, isLit := v.(rdf.Literal); isLit {
			srs = lit.Value
		}
	}
	kind, ok := geometryType(st, node)
	if !ok {
		return nil, "", fmt.Errorf("grdf: node %s has no geometry type", node)
	}
	coords := func() ([]geom.Coord, error) {
		v, ok := st.FirstObject(node, Coordinates)
		if !ok {
			if v, ok = st.FirstObject(node, PosList); ok {
				lit, isLit := v.(rdf.Literal)
				if !isLit {
					return nil, fmt.Errorf("grdf: %s posList is not a literal", node)
				}
				return geom.ParsePosList(lit.Value)
			}
			return nil, fmt.Errorf("grdf: %s has no coordinates", node)
		}
		lit, isLit := v.(rdf.Literal)
		if !isLit {
			return nil, fmt.Errorf("grdf: %s coordinates is not a literal", node)
		}
		return geom.ParseCoordinates(lit.Value)
	}
	decodeMembers := func(prop rdf.IRI) ([]geom.Geometry, error) {
		var out []geom.Geometry
		for _, m := range st.Objects(node, prop) {
			g, _, err := decodeGeometry(st, m, below)
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
		return out, nil
	}

	switch kind {
	case Point:
		cs, err := coords()
		if err != nil {
			return nil, "", err
		}
		return geom.Point{C: cs[0]}, srs, nil
	case LineString, Curve:
		cs, err := coords()
		if err != nil {
			return nil, "", err
		}
		l, err := geom.NewLineString(cs)
		return l, srs, err
	case LinearRing, Ring:
		cs, err := coords()
		if err != nil {
			return nil, "", err
		}
		r, err := geom.NewLinearRing(cs)
		return r, srs, err
	case Polygon, Surface:
		extNode, ok := st.FirstObject(node, Exterior)
		if !ok {
			return nil, "", fmt.Errorf("grdf: polygon %s has no exterior", node)
		}
		extGeo, _, err := decodeGeometry(st, extNode, below)
		if err != nil {
			return nil, "", err
		}
		ext, ok := extGeo.(geom.LinearRing)
		if !ok {
			return nil, "", fmt.Errorf("grdf: polygon %s exterior is %s", node, extGeo.Kind())
		}
		var holes []geom.LinearRing
		for _, h := range st.Objects(node, Interior) {
			hg, _, err := decodeGeometry(st, h, below)
			if err != nil {
				return nil, "", err
			}
			hr, ok := hg.(geom.LinearRing)
			if !ok {
				return nil, "", fmt.Errorf("grdf: polygon %s interior is %s", node, hg.Kind())
			}
			holes = append(holes, hr)
		}
		return geom.NewPolygon(ext, holes...), srs, nil
	case Envelope, EnvelopeWithTimePeriod:
		lo, okL := st.FirstObject(node, LowerCorner)
		hi, okU := st.FirstObject(node, UpperCorner)
		if !okL || !okU {
			return nil, "", fmt.Errorf("grdf: envelope %s missing corners", node)
		}
		loLit, okL := lo.(rdf.Literal)
		hiLit, okU := hi.(rdf.Literal)
		if !okL || !okU {
			return nil, "", fmt.Errorf("grdf: envelope %s corners are not literals", node)
		}
		lc, err := geom.ParseCoordinates(loLit.Value)
		if err != nil {
			return nil, "", err
		}
		uc, err := geom.ParseCoordinates(hiLit.Value)
		if err != nil {
			return nil, "", err
		}
		return geom.EnvelopeOf(lc[0], uc[0]), srs, nil
	case Null:
		return geom.EmptyEnvelope(), srs, nil
	case MultiPoint:
		ms, err := decodeMembers(PointMember)
		if err != nil {
			return nil, "", err
		}
		var mp geom.MultiPoint
		for _, m := range ms {
			p, ok := m.(geom.Point)
			if !ok {
				return nil, "", fmt.Errorf("grdf: MultiPoint member is %s", m.Kind())
			}
			mp.Points = append(mp.Points, p)
		}
		return mp, srs, nil
	case MultiCurve:
		ms, err := decodeMembers(CurveMember)
		if err != nil {
			return nil, "", err
		}
		var mc geom.MultiCurve
		for _, m := range ms {
			c, ok := m.(geom.LineString)
			if !ok {
				return nil, "", fmt.Errorf("grdf: MultiCurve member is %s", m.Kind())
			}
			mc.Curves = append(mc.Curves, c)
		}
		return mc, srs, nil
	case MultiSurface:
		ms, err := decodeMembers(SurfaceMember)
		if err != nil {
			return nil, "", err
		}
		var out geom.MultiSurface
		for _, m := range ms {
			s, ok := m.(geom.Polygon)
			if !ok {
				return nil, "", fmt.Errorf("grdf: MultiSurface member is %s", m.Kind())
			}
			out.Surfaces = append(out.Surfaces, s)
		}
		return out, srs, nil
	case CompositeCurve:
		ms, err := decodeMembers(CurveMember)
		if err != nil {
			return nil, "", err
		}
		// Member order is not preserved by the triple store; rebuild the
		// chain from endpoint adjacency before validating contiguity.
		ordered, err := orderCurveChain(ms)
		if err != nil {
			return nil, "", fmt.Errorf("grdf: composite curve %s: %w", node, err)
		}
		cc, err := geom.NewCompositeCurve(ordered...)
		return cc, srs, err
	case CompositeSurface:
		ms, err := decodeMembers(SurfaceMember)
		if err != nil {
			return nil, "", err
		}
		var polys []geom.Polygon
		for _, m := range ms {
			p, ok := m.(geom.Polygon)
			if !ok {
				return nil, "", fmt.Errorf("grdf: CompositeSurface member is %s", m.Kind())
			}
			polys = append(polys, p)
		}
		cs, err := geom.NewCompositeSurface(polys...)
		return cs, srs, err
	case ComplexGeometry:
		ms, err := decodeMembers(GeometryMember)
		if err != nil {
			return nil, "", err
		}
		return geom.Complex{Members: ms}, srs, nil
	case Solid:
		ms, err := decodeMembers(SolidMember)
		if err != nil {
			return nil, "", err
		}
		var s geom.Solid
		for _, m := range ms {
			p, ok := m.(geom.Polygon)
			if !ok {
				return nil, "", fmt.Errorf("grdf: Solid member is %s", m.Kind())
			}
			s.Boundary = append(s.Boundary, p)
		}
		return s, srs, nil
	}
	return nil, "", fmt.Errorf("grdf: unsupported geometry class %s", kind)
}

// orderCurveChain arranges curve members into a contiguous chain: the head
// is the member whose start point is no other member's end point, and each
// next member starts where the previous ends.
func orderCurveChain(ms []geom.Geometry) ([]geom.Geometry, error) {
	if len(ms) <= 1 {
		return ms, nil
	}
	lines := make([]geom.LineString, len(ms))
	for i, m := range ms {
		l, ok := m.(geom.LineString)
		if !ok {
			return nil, fmt.Errorf("member %d is %s, want LineString", i, m.Kind())
		}
		lines[i] = l
	}
	ends := map[geom.Coord]bool{}
	for _, l := range lines {
		ends[l.Coords[len(l.Coords)-1]] = true
	}
	startIdx := -1
	for i, l := range lines {
		if !ends[l.Coords[0]] {
			startIdx = i
			break
		}
	}
	if startIdx < 0 {
		startIdx = 0 // closed loop: any member can lead
	}
	byStart := map[geom.Coord]int{}
	for i, l := range lines {
		byStart[l.Coords[0]] = i
	}
	used := make([]bool, len(lines))
	out := make([]geom.Geometry, 0, len(lines))
	cur := startIdx
	for range lines {
		if used[cur] {
			return nil, fmt.Errorf("members do not form a simple chain")
		}
		used[cur] = true
		out = append(out, lines[cur])
		next, ok := byStart[lines[cur].Coords[len(lines[cur].Coords)-1]]
		if !ok {
			break
		}
		if used[next] {
			break
		}
		cur = next
	}
	if len(out) != len(lines) {
		return nil, fmt.Errorf("members do not form a single chain")
	}
	return out, nil
}

// geometryRank holds every GRDF geometry class the decoder reads, ranked so
// that a subclass beats its superclass when a node carries both.
var geometryRank = map[rdf.IRI]int{
	LineString: 2, LinearRing: 2, Polygon: 2, EnvelopeWithTimePeriod: 2,
	CompositeCurve: 2, CompositeSurface: 2,
	Curve: 1, Ring: 1, Surface: 1, Envelope: 1,
	Point: 0, Solid: 0, Null: 0, MultiPoint: 0, MultiCurve: 0, MultiSurface: 0,
	ComplexGeometry: 0,
}

// geometryType finds the node's most specific GRDF geometry class.
func geometryType(st store.Reader, node rdf.Term) (rdf.IRI, bool) {
	var found rdf.IRI
	best := -1
	st.ForEachMatch(node, rdf.RDFType, nil, func(t rdf.Triple) bool {
		if iri, ok := t.Object.(rdf.IRI); ok {
			if rank, known := geometryRank[iri]; known && rank > best {
				best, found = rank, iri
			}
		}
		return true
	})
	return found, found != ""
}

// NewFeature appends to ts the triples asserting a feature individual of the
// given class (the class is additionally declared a subclass of grdf:Feature
// when it is outside the GRDF namespace, letting domain ontologies bootstrap
// as Section 2 intends).
func NewFeature(ts []rdf.Triple, id rdf.IRI, class rdf.IRI) []rdf.Triple {
	if class == "" {
		class = Feature
	}
	ts = append(ts, rdf.T(id, rdf.RDFType, class))
	if class != Feature && class.Namespace() != NS {
		ts = append(ts, rdf.T(class, rdf.RDFSSubClassOf, Feature))
	}
	return ts
}

// SetGeometry attaches geo to the feature via grdf:hasGeometry, returning the
// geometry node.
func SetGeometry(st *store.Store, feature rdf.IRI, geo geom.Geometry, srs string) (rdf.Term, error) {
	return attach(st, feature, HasGeometry, geo, srs)
}

// SetEnvelope attaches a bounding envelope via grdf:boundedBy.
func SetEnvelope(st *store.Store, feature rdf.IRI, env geom.Envelope, srs string) (rdf.Term, error) {
	return attach(st, feature, BoundedBy, env, srs)
}

// attach encodes geo under a fresh blank node linked from feature by prop,
// and commits it with one AddAll.
func attach(st *store.Store, feature rdf.IRI, prop rdf.IRI, geo geom.Geometry, srs string) (rdf.Term, error) {
	node := rdf.Term(rdf.NewBlankNode())
	ts, err := EncodeGeometry(nil, node, geo, srs)
	if err != nil {
		return nil, err
	}
	st.AddAll(append(ts, rdf.T(feature, prop, node)))
	return node, nil
}

// geometryProps are the properties that can carry a feature's geometry, in
// lookup order.
var geometryProps = []rdf.IRI{
	HasGeometry, BoundedBy, IsBoundedBy, HasEnvelope,
	HasCenterLineOf, HasCenterOf, HasEdgeOf, HasExtentOf,
}

// GeometryOf resolves a feature's geometry: if the term itself decodes as a
// geometry node it is used directly, otherwise the feature's geometry
// properties are tried in order.
func GeometryOf(st store.Reader, term rdf.Term) (geom.Geometry, string, error) {
	// Most terms asked about are features, not geometry nodes: one type probe
	// spares them a decode that can only fail.
	if _, isNode := geometryType(st, term); isNode {
		if g, srs, err := DecodeGeometry(st, term); err == nil {
			return g, srs, nil
		}
	}
	for _, p := range geometryProps {
		if node, ok := st.FirstObject(term, p); ok {
			if g, srs, err := DecodeGeometry(st, node); err == nil {
				return g, srs, nil
			}
		}
	}
	return nil, "", fmt.Errorf("grdf: %s has no resolvable geometry", term)
}

// EnvelopeOfFeature returns the feature's bounding box: the declared
// grdf:boundedBy envelope when present, otherwise the envelope of its
// geometry.
func EnvelopeOfFeature(st *store.Store, feature rdf.Term) (geom.Envelope, bool) {
	if node, ok := st.FirstObject(feature, BoundedBy); ok {
		if g, _, err := DecodeGeometry(st, node); err == nil {
			return g.Envelope(), true
		}
	}
	if g, _, err := GeometryOf(st, feature); err == nil {
		return g.Envelope(), true
	}
	return geom.EmptyEnvelope(), false
}

// FeaturesOfType returns the features with the given rdf:type asserted.
func FeaturesOfType(st *store.Store, class rdf.IRI) []rdf.Term {
	return st.SubjectsOfType(class)
}
