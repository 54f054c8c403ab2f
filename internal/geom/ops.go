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

// representativePoints extracts coordinates that can witness containment.
func representativePoints(g Geometry) []Coord {
	switch v := g.(type) {
	case Point:
		return []Coord{v.C}
	case LineString:
		return v.Coords
	case LinearRing:
		return v.Coords
	case Polygon:
		return v.Exterior.Coords
	case Solid:
		var out []Coord
		for _, p := range v.Boundary {
			out = append(out, p.Exterior.Coords...)
		}
		return out
	case MultiPoint:
		out := make([]Coord, len(v.Points))
		for i, p := range v.Points {
			out[i] = p.C
		}
		return out
	case MultiCurve:
		var out []Coord
		for _, c := range v.Curves {
			out = append(out, c.Coords...)
		}
		return out
	case MultiSurface:
		var out []Coord
		for _, s := range v.Surfaces {
			out = append(out, s.Exterior.Coords...)
		}
		return out
	case CompositeCurve:
		var out []Coord
		for _, m := range v.Members {
			out = append(out, representativePoints(m)...)
		}
		return out
	case CompositeSurface:
		var out []Coord
		for _, m := range v.Members {
			out = append(out, representativePoints(m)...)
		}
		return out
	case Complex:
		var out []Coord
		for _, m := range v.Members {
			out = append(out, representativePoints(m)...)
		}
		return out
	case Envelope:
		if v.Empty {
			return nil
		}
		ll, ur := v.Corners()
		return []Coord{ll, ur, v.Center()}
	}
	return nil
}

// containersOf lists the areal components of g (for containment tests).
func containersOf(g Geometry) []Polygon {
	switch v := g.(type) {
	case Polygon:
		return []Polygon{v}
	case MultiSurface:
		return v.Surfaces
	case CompositeSurface:
		return v.Members
	case Solid:
		return v.Boundary
	case Complex:
		var out []Polygon
		for _, m := range v.Members {
			out = append(out, containersOf(m)...)
		}
		return out
	case Envelope:
		if v.Empty {
			return nil
		}
		ll, ur := v.Corners()
		ring, err := NewLinearRing([]Coord{ll, {ur.X, ll.Y}, ur, {ll.X, ur.Y}, ll})
		if err != nil {
			return nil
		}
		return []Polygon{NewPolygon(ring)}
	}
	return nil
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
	for _, poly := range containersOf(a) {
		for _, p := range representativePoints(b) {
			if PointInPolygon(p, poly) {
				return true
			}
		}
	}
	for _, poly := range containersOf(b) {
		for _, p := range representativePoints(a) {
			if PointInPolygon(p, poly) {
				return true
			}
		}
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
	containers := containersOf(b)
	if len(containers) == 0 {
		return false
	}
	pts := representativePoints(a)
	if len(pts) == 0 {
		return false
	}
	for _, p := range pts {
		inSome := false
		for _, poly := range containers {
			if PointInPolygon(p, poly) {
				inSome = true
				break
			}
		}
		if !inSome {
			return false
		}
	}
	// Edges of a must not cross container boundaries outward; for convex and
	// well-formed data the vertex test suffices, but guard against a crossing
	// edge whose endpoints are inside different components.
	if len(containers) > 1 {
		return eachSegment(a, func(a0, a1 Coord) bool {
			mid := Coord{(a0.X + a1.X) / 2, (a0.Y + a1.Y) / 2}
			for _, poly := range containers {
				if PointInPolygon(mid, poly) {
					return true
				}
			}
			return false
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
	ptsA, ptsB := representativePoints(a), representativePoints(b)
	for _, p := range ptsA {
		eachSegment(b, func(s0, s1 Coord) bool {
			best = math.Min(best, pointSegDist(p, s0, s1))
			return true
		})
		for _, q := range ptsB {
			best = math.Min(best, p.Dist(q))
		}
	}
	for _, p := range ptsB {
		eachSegment(a, func(s0, s1 Coord) bool {
			best = math.Min(best, pointSegDist(p, s0, s1))
			return true
		})
	}
	return best
}

// Centroid returns a representative center: the mean of representative
// points (adequate for layer labelling and distance heuristics).
func Centroid(g Geometry) Coord {
	pts := representativePoints(g)
	if len(pts) == 0 {
		return Coord{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	return Coord{sx / float64(len(pts)), sy / float64(len(pts))}
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
