package grdf

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/store"
)

// SpatialIndex holds, for one version of a store, the decoded geometry of
// every term GeometryOf resolves there — features through their geometry
// properties and geometry nodes themselves — and a box around each to search
// by. It is a derived structure of the version (store.StoreView.Derived):
// built by the first spatial question asked of the version, shared by every
// engine over it, gone with it. Because it is derived from the version it is
// asked about, the index of a role's view holds only geometries the role may
// read.
//
// The search is a scan of the boxes, which lie in one array in ID order. At
// the sizes measured (BenchmarkSpatialQuery: 3,000 and 45,000 sites) the scan
// is a few percent of the exact test on the candidates it leaves, so no grid
// or tree is kept over them.
type SpatialIndex struct {
	ids   []store.ID      // ascending
	geoms []geom.Geometry // geoms[i] is GeometryOf(ids[i])
	boxes []box           // boxes[i] is geom.Extent(geoms[i])
}

// box is an envelope without the empty flag: an empty geometry gets NaN
// bounds, which no comparison admits — it satisfies no predicate and is at
// infinite distance from everything, so no search needs to find it.
type box struct{ minX, minY, maxX, maxY float64 }

func boxOf(g geom.Geometry) box {
	e := geom.Extent(g)
	if e.Empty {
		nan := math.NaN()
		return box{nan, nan, nan, nan}
	}
	return box{e.MinX, e.MinY, e.MaxX, e.MaxY}
}

// memberProps are the edges the geometry decoder descends from a node to its
// parts. With geometryProps they are everything a term's geometry can depend
// on beyond the term's own triples.
var memberProps = []rdf.IRI{
	Exterior, Interior, PointMember, CurveMember, SurfaceMember, GeometryMember, SolidMember,
}

// IndexOf returns the spatial index of the version at pins, building it on
// first use.
func IndexOf(at store.StoreView) *SpatialIndex {
	return at.Derived(func() any { return BuildSpatialIndex(at) }).(*SpatialIndex)
}

// CarrySpatialIndex gives next — a version made from prev by a write, in the
// same dictionary — prev's index brought forward: only the terms whose
// geometry the write can have changed are decoded again. It does nothing
// when prev never built its index: a store nobody asks spatial questions of
// pays for none.
func CarrySpatialIndex(prev, next store.StoreView) {
	old, ok := prev.Peek()
	if !ok {
		return
	}
	next.Derived(func() any { return old.(*SpatialIndex).carried(prev, next) })
}

// BuildSpatialIndex builds the index of at from nothing, without memoizing
// it: every term that can have a geometry — the subjects typed with a
// geometry class and the subjects of a geometry property — is decoded.
// IndexOf is the way to ask for a version's index; this is what it runs the
// first time, and what a carried-forward index is tested against.
func BuildSpatialIndex(at store.StoreView) *SpatialIndex {
	var subjects []store.ID
	collect := func(s, _, _ store.ID) bool {
		subjects = append(subjects, s)
		return true
	}
	if typeID, ok := at.LookupID(rdf.RDFType); ok {
		for class := range geometryRank {
			if cid, ok := at.LookupID(class); ok {
				at.ForEachMatchIDs(store.NoID, typeID, cid, collect)
			}
		}
	}
	for _, p := range geometryProps {
		if pid, ok := at.LookupID(p); ok {
			at.ForEachMatchIDs(store.NoID, pid, store.NoID, collect)
		}
	}
	slices.Sort(subjects)
	subjects = slices.Compact(subjects)
	n := len(subjects)
	ix := &SpatialIndex{ids: make([]store.ID, 0, n), geoms: make([]geom.Geometry, 0, n), boxes: make([]box, 0, n)}
	for _, id := range subjects {
		ix.derive(at, id)
	}
	return ix
}

// derive appends id's entry when id has a geometry in at. Callers append in
// ascending ID order.
func (ix *SpatialIndex) derive(at store.StoreView, id store.ID) {
	g, _, err := GeometryOf(at, at.TermOf(id))
	if err != nil {
		return
	}
	ix.ids = append(ix.ids, id)
	ix.geoms = append(ix.geoms, g)
	ix.boxes = append(ix.boxes, boxOf(g))
}

// carried returns the index of next given ix, the index of prev. A term's
// geometry is a function of its own triples and, through geometryProps and
// memberProps, of the nodes below it; so the terms to decode again are the
// subjects the version diff names and whatever reaches them upward over
// those edges, in either version.
func (ix *SpatialIndex) carried(prev, next store.StoreView) *SpatialIndex {
	var edges []store.ID
	for _, props := range [][]rdf.IRI{geometryProps, memberProps} {
		for _, p := range props {
			if pid, ok := next.LookupID(p); ok {
				edges = append(edges, pid)
			}
		}
	}
	touched := map[store.ID]struct{}{}
	var up func(id store.ID)
	up = func(id store.ID) {
		if _, seen := touched[id]; seen {
			return
		}
		touched[id] = struct{}{}
		for _, sv := range [...]store.StoreView{prev, next} {
			for _, pid := range edges {
				sv.ForEachMatchIDs(store.NoID, pid, id, func(s, _, _ store.ID) bool {
					up(s)
					return true
				})
			}
		}
	}
	next.ChangedSubjects(prev, func(id store.ID) bool {
		up(id)
		return true
	})
	again := make([]store.ID, 0, len(touched))
	for id := range touched {
		again = append(again, id)
	}
	slices.Sort(again)

	n := len(ix.ids) + len(again)
	out := &SpatialIndex{ids: make([]store.ID, 0, n), geoms: make([]geom.Geometry, 0, n), boxes: make([]box, 0, n)}
	keep := func(lo, hi int) {
		out.ids = append(out.ids, ix.ids[lo:hi]...)
		out.geoms = append(out.geoms, ix.geoms[lo:hi]...)
		out.boxes = append(out.boxes, ix.boxes[lo:hi]...)
	}
	i := 0
	for _, id := range again {
		j, had := slices.BinarySearch(ix.ids[i:], id)
		keep(i, i+j)
		i += j
		if had {
			i++
		}
		out.derive(next, id)
	}
	keep(i, len(ix.ids))
	return out
}

// Geometry returns the geometry GeometryOf resolves for the term with the
// given ID in the index's version.
func (ix *SpatialIndex) Geometry(id store.ID) (geom.Geometry, bool) {
	i, found := slices.BinarySearch(ix.ids, id)
	if !found {
		return nil, false
	}
	return ix.geoms[i], true
}

// Candidates returns, in ascending order, the ID of every term whose box
// meets q, boundaries included.
func (ix *SpatialIndex) Candidates(q geom.Envelope) []store.ID {
	if q.Empty {
		return nil
	}
	var out []store.ID
	for i, b := range ix.boxes {
		if b.minX <= q.MaxX && q.MinX <= b.maxX && b.minY <= q.MaxY && q.MinY <= b.maxY {
			out = append(out, ix.ids[i])
		}
	}
	return out
}

// near returns the candidates for "within r of k": the terms whose box meets
// k's box grown by r. The exact functions compute in floating point — a
// projection onto a segment, a hypotenuse — so a distance that comes out just
// under r can belong to a box a rounding error outside the grown one; the
// margin added to r is orders of magnitude above that error at any coordinate
// size, and costs at most a few more candidates for the exact test.
func (ix *SpatialIndex) near(k geom.Geometry, r float64) []store.ID {
	e := geom.Extent(k)
	if e.Empty || r < 0 {
		return nil
	}
	scale := math.Max(math.Max(math.Abs(e.MinX), math.Abs(e.MaxX)), math.Max(math.Abs(e.MinY), math.Abs(e.MaxY)))
	r += 1e-9 * (1 + r + scale)
	return ix.Candidates(geom.Envelope{MinX: e.MinX - r, MinY: e.MinY - r, MaxX: e.MaxX + r, MaxY: e.MaxY + r})
}
