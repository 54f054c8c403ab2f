package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// segmentList is the segment list the spatial predicates and Distance were
// computed from before they walked the segments in place, kept as the oracle
// of eachSegment's walk.
func segmentList(g Geometry) [][2]Coord {
	chain := func(cs []Coord) [][2]Coord {
		var out [][2]Coord
		for i := 1; i < len(cs); i++ {
			out = append(out, [2]Coord{cs[i-1], cs[i]})
		}
		return out
	}
	switch v := g.(type) {
	case LineString:
		return chain(v.Coords)
	case LinearRing:
		return chain(v.Coords)
	case Polygon:
		out := chain(v.Exterior.Coords)
		for _, h := range v.Holes {
			out = append(out, chain(h.Coords)...)
		}
		return out
	case Solid:
		var out [][2]Coord
		for _, p := range v.Boundary {
			out = append(out, segmentList(p)...)
		}
		return out
	case MultiCurve:
		var out [][2]Coord
		for _, c := range v.Curves {
			out = append(out, chain(c.Coords)...)
		}
		return out
	case MultiSurface:
		var out [][2]Coord
		for _, s := range v.Surfaces {
			out = append(out, segmentList(s)...)
		}
		return out
	case CompositeCurve:
		var out [][2]Coord
		for _, m := range v.Members {
			out = append(out, segmentList(m)...)
		}
		return out
	case CompositeSurface:
		var out [][2]Coord
		for _, m := range v.Members {
			out = append(out, segmentList(m)...)
		}
		return out
	case Complex:
		var out [][2]Coord
		for _, m := range v.Members {
			out = append(out, segmentList(m)...)
		}
		return out
	case Envelope:
		if v.Empty {
			return nil
		}
		ll, ur := v.Corners()
		return chain([]Coord{ll, {ur.X, ll.Y}, ur, {ll.X, ur.Y}, ll})
	}
	return nil
}

// randomGeometry is a geometry of a random kind inside [0, 100)², with
// holes, nested members and empty parts among the cases.
func randomGeometry(rng *rand.Rand, depth int) Geometry {
	pt := func() Coord { return Coord{rng.Float64() * 100, rng.Float64() * 100} }
	chain := func(n int) []Coord {
		cs := make([]Coord, n)
		for i := range cs {
			cs[i] = pt()
		}
		return cs
	}
	poly := func() Polygon {
		box := func(c Coord, d float64) LinearRing {
			return LinearRing{Coords: []Coord{c, {c.X + d, c.Y}, {c.X + d, c.Y + d}, {c.X, c.Y + d}, c}}
		}
		c, d := pt(), 1+rng.Float64()*20
		p := Polygon{Exterior: box(c, d)}
		if rng.Intn(2) == 0 {
			p.Holes = []LinearRing{box(Coord{c.X + d/4, c.Y + d/4}, d/2)}
		}
		return p
	}
	kind := rng.Intn(12)
	if depth > 1 && kind >= 9 {
		kind = rng.Intn(9)
	}
	switch kind {
	case 0:
		return Point{C: pt()}
	case 1:
		return LineString{Coords: chain(2 + rng.Intn(5))}
	case 2:
		return LinearRing{Coords: poly().Exterior.Coords}
	case 3:
		return poly()
	case 4:
		return MultiPoint{Points: []Point{{C: pt()}, {C: pt()}}}
	case 5:
		return MultiCurve{Curves: []LineString{{Coords: chain(3)}, {Coords: chain(2)}}}
	case 6:
		return MultiSurface{Surfaces: []Polygon{poly(), poly()}}
	case 7:
		if rng.Intn(4) == 0 {
			return EmptyEnvelope()
		}
		return EnvelopeOf(pt(), pt())
	case 8:
		return Solid{Boundary: []Polygon{poly(), poly()}}
	case 9:
		return CompositeCurve{Members: []Geometry{LineString{Coords: chain(3)}, randomGeometry(rng, depth+1)}}
	case 10:
		return CompositeSurface{Members: []Polygon{poly(), poly()}}
	default:
		return Complex{Members: []Geometry{randomGeometry(rng, depth+1), randomGeometry(rng, depth+1)}}
	}
}

// TestEachSegmentIsTheSegmentList: eachSegment visits the segments the list
// held, in its order, stops where its function says, and allocates nothing;
// and Intersects, Distance and Extent, which now walk them, answer what they
// answered from the list.
func TestEachSegmentIsTheSegmentList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gs := make([]Geometry, 400)
	for i := range gs {
		gs[i] = randomGeometry(rng, 0)
	}
	for _, g := range gs {
		want := segmentList(g)
		var got [][2]Coord
		if !eachSegment(g, func(a, b Coord) bool { got = append(got, [2]Coord{a, b}); return true }) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: walked %v, the list is %v", g.Kind(), got, want)
		}
		if len(want) > 1 {
			stop, calls := rng.Intn(len(want)), 0
			if eachSegment(g, func(a, b Coord) bool { calls++; return calls <= stop }) || calls != stop+1 {
				t.Fatalf("%s: a walk stopped at segment %d made %d calls", g.Kind(), stop, calls)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { eachSegment(g, func(a, b Coord) bool { return true }) }); allocs != 0 {
			t.Fatalf("%s: a walk allocates %.0f times", g.Kind(), allocs)
		}
	}
	meets := 0
	for i, a := range gs {
		b := gs[(i*7+3)%len(gs)]
		got, want := Intersects(a, b), listIntersects(a, b)
		if got != want {
			t.Errorf("Intersects(%v, %v) = %v, the list says %v", a, b, got, want)
		}
		if got {
			meets++
		}
		if got, want := Distance(a, b), listDistance(a, b); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Distance(%v, %v) = %v, the list says %v", a, b, got, want)
		}
		e := a.Envelope()
		for _, s := range segmentList(a) {
			e = e.ExtendCoord(s[0]).ExtendCoord(s[1])
		}
		if got := Extent(a); got != e {
			t.Errorf("Extent(%v) = %v, the list says %v", a, got, e)
		}
	}
	if meets < len(gs)/10 || meets > len(gs)*9/10 {
		t.Errorf("%d of %d pairs intersect: the pairs do not test both answers", meets, len(gs))
	}
}

// listIntersects is Intersects as it was computed from segment lists.
func listIntersects(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !a.Envelope().IntersectsEnv(b.Envelope()) {
		return false
	}
	segsA, segsB := segmentList(a), segmentList(b)
	for _, sa := range segsA {
		for _, sb := range segsB {
			if SegmentsIntersect(sa[0], sa[1], sb[0], sb[1]) {
				return true
			}
		}
	}
	for _, poly := range containerList(a) {
		for _, p := range pointList(b) {
			if PointInPolygon(p, poly) {
				return true
			}
		}
	}
	for _, poly := range containerList(b) {
		for _, p := range pointList(a) {
			if PointInPolygon(p, poly) {
				return true
			}
		}
	}
	if pa, ok := a.(Point); ok {
		for _, sb := range segsB {
			if math.Abs(orient(sb[0], sb[1], pa.C)) <= eps && onSegment(sb[0], sb[1], pa.C) {
				return true
			}
		}
		if pb, ok := b.(Point); ok {
			return pa.C.Dist(pb.C) <= eps
		}
	}
	if pb, ok := b.(Point); ok {
		for _, sa := range segsA {
			if math.Abs(orient(sa[0], sa[1], pb.C)) <= eps && onSegment(sa[0], sa[1], pb.C) {
				return true
			}
		}
	}
	return false
}

// listDistance is Distance as it was computed from segment lists.
func listDistance(a, b Geometry) float64 {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	if listIntersects(a, b) {
		return 0
	}
	best := math.Inf(1)
	ptsA, ptsB := pointList(a), pointList(b)
	segsA, segsB := segmentList(a), segmentList(b)
	for _, p := range ptsA {
		for _, s := range segsB {
			best = math.Min(best, pointSegDist(p, s[0], s[1]))
		}
		for _, q := range ptsB {
			best = math.Min(best, p.Dist(q))
		}
	}
	for _, p := range ptsB {
		for _, s := range segsA {
			best = math.Min(best, pointSegDist(p, s[0], s[1]))
		}
	}
	return best
}

// pointList is the list of containment witnesses the predicates, Distance
// and Centroid were computed from before eachPoint walked them in place,
// kept as its oracle.
func pointList(g Geometry) []Coord {
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
			out = append(out, pointList(m)...)
		}
		return out
	case CompositeSurface:
		var out []Coord
		for _, m := range v.Members {
			out = append(out, pointList(m)...)
		}
		return out
	case Complex:
		var out []Coord
		for _, m := range v.Members {
			out = append(out, pointList(m)...)
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

// containerList is the list of areal components the predicates were
// computed from before arealParts and inAreal walked them in place.
func containerList(g Geometry) []Polygon {
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
			out = append(out, containerList(m)...)
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

// listWithin is Within as it was computed from the lists.
func listWithin(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !b.Envelope().ContainsEnv(a.Envelope()) {
		return false
	}
	containers := containerList(b)
	pts := pointList(a)
	if len(containers) == 0 || len(pts) == 0 {
		return false
	}
	inSome := func(p Coord) bool {
		for _, poly := range containers {
			if PointInPolygon(p, poly) {
				return true
			}
		}
		return false
	}
	for _, p := range pts {
		if !inSome(p) {
			return false
		}
	}
	if len(containers) > 1 {
		for _, s := range segmentList(a) {
			if !inSome(Coord{(s[0].X + s[1].X) / 2, (s[0].Y + s[1].Y) / 2}) {
				return false
			}
		}
	}
	return true
}

// listCentroid is Centroid as it was computed from the point list.
func listCentroid(g Geometry) Coord {
	pts := pointList(g)
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

// TestEachPointIsThePointList: over random geometries of every kind,
// eachPoint visits the witnesses the list held, in its order, and stops
// where its function says; arealParts and inAreal agree with the container
// list; Intersects, Within, Distance and Centroid answer what they answered
// from the lists; and none of them allocates.
func TestEachPointIsThePointList(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gs := make([]Geometry, 400)
	for i := range gs {
		gs[i] = randomGeometry(rng, 0)
	}
	for _, g := range gs {
		want := pointList(g)
		var got []Coord
		if !eachPoint(g, func(p Coord) bool { got = append(got, p); return true }) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: walked %v, the list is %v", g.Kind(), got, want)
		}
		if len(want) > 1 {
			stop, calls := rng.Intn(len(want)), 0
			if eachPoint(g, func(Coord) bool { calls++; return calls <= stop }) || calls != stop+1 {
				t.Fatalf("%s: a walk stopped at point %d made %d calls", g.Kind(), stop, calls)
			}
		}
		containers := containerList(g)
		if n := arealParts(g); n != len(containers) {
			t.Fatalf("%s: %d areal parts, the list holds %d", g.Kind(), n, len(containers))
		}
		for range 20 {
			e := g.Envelope()
			p := Coord{e.MinX - 1 + rng.Float64()*(e.Width()+2), e.MinY - 1 + rng.Float64()*(e.Height()+2)}
			want := false
			for _, poly := range containers {
				want = want || PointInPolygon(p, poly)
			}
			if got := inAreal(g, p); got != want {
				t.Fatalf("%s: inAreal(%v) = %v, the list says %v", g, p, got, want)
			}
		}
	}
	within := 0
	for i, a := range gs {
		others := []Geometry{gs[(i*7+3)%len(gs)], Buffer(a, 1), Complex{Members: []Geometry{Buffer(a, 1), gs[(i*5+1)%len(gs)]}}}
		for _, b := range others {
			if got, want := Intersects(a, b), listIntersects(a, b); got != want {
				t.Errorf("Intersects(%v, %v) = %v, the list says %v", a, b, got, want)
			}
			got, want := Within(a, b), listWithin(a, b)
			if got != want {
				t.Errorf("Within(%v, %v) = %v, the list says %v", a, b, got, want)
			}
			if got {
				within++
			}
			if got, want := Distance(a, b), listDistance(a, b); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("Distance(%v, %v) = %v, the list says %v", a, b, got, want)
			}
			if allocs := testing.AllocsPerRun(3, func() { Intersects(a, b); Within(a, b); Distance(a, b) }); allocs != 0 {
				t.Fatalf("%s, %s: the predicates allocate %.0f times", a.Kind(), b.Kind(), allocs)
			}
		}
		if got, want := Centroid(a), listCentroid(a); got != want {
			t.Errorf("Centroid(%v) = %v, the list says %v", a, got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { Centroid(a) }); allocs != 0 {
			t.Fatalf("%s: Centroid allocates %.0f times", a.Kind(), allocs)
		}
	}
	if within < len(gs)/4 {
		t.Errorf("%d pairs are within: the pairs do not test both answers", within)
	}
}
