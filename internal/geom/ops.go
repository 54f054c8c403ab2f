package geom

import (
	"math"
)

// Spatial predicates and measures. These back the grdf: SPARQL filter
// functions (grdf:within, grdf:intersects, grdf:distance) and the G-SACS
// spatial policy conditions.

const eps = 1e-9

// orient returns >0 when a→b→c turns counter-clockwise, <0 clockwise, 0
// collinear.
func orient(a, b, c Coord) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether p lies on segment ab (assuming collinearity).
func onSegment(a, b, p Coord) bool {
	return math.Min(a.X, b.X)-eps <= p.X && p.X <= math.Max(a.X, b.X)+eps &&
		math.Min(a.Y, b.Y)-eps <= p.Y && p.Y <= math.Max(a.Y, b.Y)+eps
}

// SegmentsIntersect reports whether segments ab and cd share a point.
func SegmentsIntersect(a, b, c, d Coord) bool {
	o1, o2 := orient(a, b, c), orient(a, b, d)
	o3, o4 := orient(c, d, a), orient(c, d, b)
	if ((o1 > eps && o2 < -eps) || (o1 < -eps && o2 > eps)) &&
		((o3 > eps && o4 < -eps) || (o3 < -eps && o4 > eps)) {
		return true
	}
	switch {
	case math.Abs(o1) <= eps && onSegment(a, b, c):
		return true
	case math.Abs(o2) <= eps && onSegment(a, b, d):
		return true
	case math.Abs(o3) <= eps && onSegment(c, d, a):
		return true
	case math.Abs(o4) <= eps && onSegment(c, d, b):
		return true
	}
	return false
}

// pointInRing applies even-odd ray casting; boundary points count as inside.
func pointInRing(p Coord, ring []Coord) bool {
	// boundary check first
	for i := 1; i < len(ring); i++ {
		a, b := ring[i-1], ring[i]
		if math.Abs(orient(a, b, p)) <= eps && onSegment(a, b, p) {
			return true
		}
	}
	inside := false
	for i := 1; i < len(ring); i++ {
		a, b := ring[i-1], ring[i]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// PointInPolygon reports whether p lies inside poly (holes excluded,
// boundaries inclusive).
func PointInPolygon(p Coord, poly Polygon) bool {
	if !pointInRing(p, poly.Exterior.Coords) {
		return false
	}
	for _, h := range poly.Holes {
		if pointInRing(p, h.Coords) {
			// inside a hole only counts when on the hole's boundary
			onBoundary := false
			for i := 1; i < len(h.Coords); i++ {
				a, b := h.Coords[i-1], h.Coords[i]
				if math.Abs(orient(a, b, p)) <= eps && onSegment(a, b, p) {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				return false
			}
		}
	}
	return true
}

// eachSegment calls f on every boundary or line segment of g, chain by
// chain, until f returns false; it reports whether f saw them all. It walks
// the coordinates where they are: nothing is allocated.
func eachSegment(g Geometry, f func(a, b Coord) bool) bool {
	switch v := g.(type) {
	case LineString:
		return eachChainSegment(v.Coords, f)
	case LinearRing:
		return eachChainSegment(v.Coords, f)
	case Polygon:
		return eachPolygonSegment(v, f)
	case Solid:
		for _, p := range v.Boundary {
			if !eachPolygonSegment(p, f) {
				return false
			}
		}
	case MultiCurve:
		for _, c := range v.Curves {
			if !eachChainSegment(c.Coords, f) {
				return false
			}
		}
	case MultiSurface:
		for _, p := range v.Surfaces {
			if !eachPolygonSegment(p, f) {
				return false
			}
		}
	case CompositeCurve:
		for _, m := range v.Members {
			if !eachSegment(m, f) {
				return false
			}
		}
	case CompositeSurface:
		for _, p := range v.Members {
			if !eachPolygonSegment(p, f) {
				return false
			}
		}
	case Complex:
		for _, m := range v.Members {
			if !eachSegment(m, f) {
				return false
			}
		}
	case Envelope:
		if v.Empty {
			return true
		}
		ll, ur := v.Corners()
		lr := Coord{ur.X, ll.Y}
		ul := Coord{ll.X, ur.Y}
		return f(ll, lr) && f(lr, ur) && f(ur, ul) && f(ul, ll)
	}
	return true
}

// eachChainSegment is eachSegment of a coordinate chain.
func eachChainSegment(cs []Coord, f func(a, b Coord) bool) bool {
	for i := 1; i < len(cs); i++ {
		if !f(cs[i-1], cs[i]) {
			return false
		}
	}
	return true
}

// eachPolygonSegment is eachSegment of a polygon: its exterior ring, then
// its holes.
func eachPolygonSegment(p Polygon, f func(a, b Coord) bool) bool {
	if !eachChainSegment(p.Exterior.Coords, f) {
		return false
	}
	for _, h := range p.Holes {
		if !eachChainSegment(h.Coords, f) {
			return false
		}
	}
	return true
}

// eachPoint calls f on every coordinate of g that can witness containment —
// a line's vertices, each polygon's exterior ring, an envelope's corners and
// center — until f returns false; it reports whether f saw them all. Like
// eachSegment it walks the coordinates where they are.
func eachPoint(g Geometry, f func(Coord) bool) bool {
	switch v := g.(type) {
	case Point:
		return f(v.C)
	case LineString:
		return eachCoord(v.Coords, f)
	case LinearRing:
		return eachCoord(v.Coords, f)
	case Polygon:
		return eachCoord(v.Exterior.Coords, f)
	case Solid:
		return eachExterior(v.Boundary, f)
	case MultiPoint:
		for _, p := range v.Points {
			if !f(p.C) {
				return false
			}
		}
	case MultiCurve:
		for _, c := range v.Curves {
			if !eachCoord(c.Coords, f) {
				return false
			}
		}
	case MultiSurface:
		return eachExterior(v.Surfaces, f)
	case CompositeCurve:
		for _, m := range v.Members {
			if !eachPoint(m, f) {
				return false
			}
		}
	case CompositeSurface:
		return eachExterior(v.Members, f)
	case Complex:
		for _, m := range v.Members {
			if !eachPoint(m, f) {
				return false
			}
		}
	case Envelope:
		if v.Empty {
			return true
		}
		ll, ur := v.Corners()
		return f(ll) && f(ur) && f(v.Center())
	}
	return true
}

// eachCoord is eachPoint of a coordinate chain.
func eachCoord(cs []Coord, f func(Coord) bool) bool {
	for _, c := range cs {
		if !f(c) {
			return false
		}
	}
	return true
}

// eachExterior is eachPoint of polygons: their exterior rings in turn.
func eachExterior(ps []Polygon, f func(Coord) bool) bool {
	for _, p := range ps {
		if !eachCoord(p.Exterior.Coords, f) {
			return false
		}
	}
	return true
}

// arealParts counts the areal components of g: its polygons, surface
// members, a solid's boundary polygons, an envelope's box.
func arealParts(g Geometry) int {
	switch v := g.(type) {
	case Polygon:
		return 1
	case MultiSurface:
		return len(v.Surfaces)
	case CompositeSurface:
		return len(v.Members)
	case Solid:
		return len(v.Boundary)
	case Complex:
		n := 0
		for _, m := range v.Members {
			n += arealParts(m)
		}
		return n
	case Envelope:
		if !v.Empty {
			return 1
		}
	}
	return 0
}

// inAreal reports whether p lies in one of g's areal components (holes
// excluded, boundaries inclusive).
func inAreal(g Geometry, p Coord) bool {
	switch v := g.(type) {
	case Polygon:
		return PointInPolygon(p, v)
	case MultiSurface:
		return inSomePolygon(v.Surfaces, p)
	case CompositeSurface:
		return inSomePolygon(v.Members, p)
	case Solid:
		return inSomePolygon(v.Boundary, p)
	case Complex:
		for _, m := range v.Members {
			if inAreal(m, p) {
				return true
			}
		}
	case Envelope:
		if !v.Empty {
			ll, ur := v.Corners()
			ring := [5]Coord{ll, {ur.X, ll.Y}, ur, {ll.X, ur.Y}, ll}
			return pointInRing(p, ring[:])
		}
	}
	return false
}

// inSomePolygon reports whether p lies in one of ps.
func inSomePolygon(ps []Polygon, p Coord) bool {
	for _, poly := range ps {
		if PointInPolygon(p, poly) {
			return true
		}
	}
	return false
}

// Intersects reports whether a and b share at least one point. Envelope
// rejection runs first; then boundary-segment intersection and containment
// are tested.
func Intersects(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !a.Envelope().IntersectsEnv(b.Envelope()) {
		return false
	}
	crossing := !eachSegment(a, func(a0, a1 Coord) bool {
		return eachSegment(b, func(b0, b1 Coord) bool { return !SegmentsIntersect(a0, a1, b0, b1) })
	})
	if crossing {
		return true
	}
	// No edge crossings: one may contain the other, or point geometries.
	holds := func(outer, inner Geometry) bool {
		return arealParts(outer) > 0 && !eachPoint(inner, func(p Coord) bool { return !inAreal(outer, p) })
	}
	if holds(a, b) || holds(b, a) {
		return true
	}
	// Point-point / point-line coincidence.
	if pa, ok := a.(Point); ok {
		if !eachSegment(b, func(s0, s1 Coord) bool { return !onLine(s0, s1, pa.C) }) {
			return true
		}
		if pb, ok := b.(Point); ok {
			return pa.C.Dist(pb.C) <= eps
		}
	}
	if pb, ok := b.(Point); ok {
		if !eachSegment(a, func(s0, s1 Coord) bool { return !onLine(s0, s1, pb.C) }) {
			return true
		}
	}
	return false
}

// onLine reports whether p lies on segment ab, within eps.
func onLine(a, b, p Coord) bool { return math.Abs(orient(a, b, p)) <= eps && onSegment(a, b, p) }

// Within reports whether every point of a lies inside b. b must have areal
// components (Polygon, MultiSurface, Envelope, …).
func Within(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !b.Envelope().ContainsEnv(a.Envelope()) {
		return false
	}
	parts, points := arealParts(b), 0
	if parts == 0 {
		return false
	}
	if !eachPoint(a, func(p Coord) bool { points++; return inAreal(b, p) }) || points == 0 {
		return false
	}
	// Edges of a must not cross container boundaries outward; for convex and
	// well-formed data the vertex test suffices, but guard against a crossing
	// edge whose endpoints are inside different components.
	if parts > 1 {
		return eachSegment(a, func(a0, a1 Coord) bool {
			return inAreal(b, Coord{(a0.X + a1.X) / 2, (a0.Y + a1.Y) / 2})
		})
	}
	return true
}

// Contains reports Within(b, a).
func Contains(a, b Geometry) bool { return Within(b, a) }

// pointSegDist returns the distance from p to segment ab.
func pointSegDist(p, a, b Coord) float64 {
	ab := b.Sub(a)
	ap := p.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(a)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	t = math.Max(0, math.Min(1, t))
	proj := Coord{a.X + t*ab.X, a.Y + t*ab.Y}
	return p.Dist(proj)
}

// Distance returns the minimum Euclidean distance between a and b
// (0 when they intersect).
func Distance(a, b Geometry) float64 {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	if Intersects(a, b) {
		return 0
	}
	best := math.Inf(1)
	eachPoint(a, func(p Coord) bool {
		eachSegment(b, func(s0, s1 Coord) bool {
			best = math.Min(best, pointSegDist(p, s0, s1))
			return true
		})
		eachPoint(b, func(q Coord) bool {
			best = math.Min(best, p.Dist(q))
			return true
		})
		return true
	})
	eachPoint(b, func(p Coord) bool {
		eachSegment(a, func(s0, s1 Coord) bool {
			best = math.Min(best, pointSegDist(p, s0, s1))
			return true
		})
		return true
	})
	return best
}

// Centroid returns a representative center: the mean of representative
// points (adequate for layer labelling and distance heuristics).
func Centroid(g Geometry) Coord {
	var sx, sy float64
	n := 0
	eachPoint(g, func(p Coord) bool {
		sx, sy, n = sx+p.X, sy+p.Y, n+1
		return true
	})
	if n == 0 {
		return Coord{}
	}
	return Coord{sx / float64(n), sy / float64(n)}
}

// Buffer returns an axis-aligned envelope expanded by d in every direction —
// a cheap conservative buffer used by the incident-radius queries in the
// contamination scenario.
func Buffer(g Geometry, d float64) Envelope {
	e := g.Envelope()
	if e.Empty {
		return e
	}
	return Envelope{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
}

// Extent returns the box around every coordinate the predicates and Distance
// read of g. For well-formed data that is g.Envelope(); it is wider when a
// polygon carries a hole that strays outside its exterior ring, whose
// segments Distance measures to all the same. An index that must never miss a
// geometry the exact functions would accept files it under this box.
func Extent(g Geometry) Envelope {
	e := g.Envelope()
	if e.Empty {
		return e
	}
	eachSegment(g, func(a, b Coord) bool {
		e = e.ExtendCoord(a).ExtendCoord(b)
		return true
	})
	return e
}
