package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// clampCoord maps arbitrary float64s into a well-conditioned coordinate
// range so property tests avoid NaN/Inf and catastrophic cancellation.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func qpt(x, y float64) Point { return Pt(clampCoord(x), clampCoord(y)) }

// TestQuickBBoxUnionContains: the union of two boxes contains both, that
// is, both corners of each.
func TestQuickBBoxUnionContains(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		b1 := BBoxOf(qpt(ax, ay), qpt(bx, by))
		b2 := BBoxOf(qpt(cx, cy), qpt(dx, dy))
		u := b1.Union(b2)
		return u.Contains(b1.Min) && u.Contains(b1.Max) && u.Contains(b2.Min) && u.Contains(b2.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBBoxDistZeroInside: points inside a box are at distance zero.
func TestQuickBBoxDistZeroInside(t *testing.T) {
	f := func(ax, ay, bx, by, t1, t2 float64) bool {
		b := BBoxOf(qpt(ax, ay), qpt(bx, by))
		u := math.Abs(math.Mod(t1, 1))
		v := math.Abs(math.Mod(t2, 1))
		p := Pt(b.Min.X+u*b.Width(), b.Min.Y+v*b.Height())
		return b.DistToPoint(p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSegmentIntersectsSymmetric: intersection is symmetric.
func TestQuickSegmentIntersectsSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		s1 := Seg(qpt(ax, ay), qpt(bx, by))
		s2 := Seg(qpt(cx, cy), qpt(dx, dy))
		return s1.Intersects(s2) == s2.Intersects(s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSegmentClosestPointOnSegment: the closest point lies on the
// segment and is no farther than either endpoint.
func TestQuickSegmentClosestPointOnSegment(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Seg(qpt(ax, ay), qpt(bx, by))
		p := qpt(px, py)
		c := s.ClosestPoint(p)
		d := c.Dist(p)
		if d > p.Dist(s.A)+Eps || d > p.Dist(s.B)+Eps {
			return false
		}
		// c must be (nearly) on the segment.
		return s.DistToPoint(c) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPolygonTranslationInvariance: area and relative centroid are
// preserved under translation.
func TestQuickPolygonTranslationInvariance(t *testing.T) {
	f := func(w, h, tx, ty float64) bool {
		wc := math.Abs(clampCoord(w)) + 1
		hc := math.Abs(clampCoord(h)) + 1
		p := Rect(0, 0, wc, hc)
		off := qpt(tx, ty)
		q := make(Polygon, len(p))
		for i, v := range p {
			q[i] = v.Add(off)
		}
		if math.Abs(p.Area()-q.Area()) > 1e-6*(1+p.Area()) {
			return false
		}
		cp, cq := p.Centroid(), q.Centroid()
		return cq.Sub(off).Dist(cp) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitPreservesArea: splitting a rectangle by any line through its
// interior preserves total area.
func TestQuickSplitPreservesArea(t *testing.T) {
	f := func(w, h, angle float64) bool {
		wc := math.Abs(clampCoord(w)) + 2
		hc := math.Abs(clampCoord(h)) + 2
		p := Rect(0, 0, wc, hc)
		c := p.Centroid()
		a := math.Mod(angle, math.Pi)
		dir := Pt(math.Cos(a), math.Sin(a))
		from := c.Sub(dir.Scale(wc + hc))
		to := c.Add(dir.Scale(wc + hc))
		left, right := p.SplitByLine(from, to)
		return math.Abs(left.Area()+right.Area()-p.Area()) < 1e-6*(1+p.Area())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickContainsCentroidConvex: a convex polygon contains its centroid.
func TestQuickContainsCentroidConvex(t *testing.T) {
	f := func(w, h float64) bool {
		wc := math.Abs(clampCoord(w)) + 1
		hc := math.Abs(clampCoord(h)) + 1
		p := Rect(3, 7, 3+wc, 7+hc)
		return p.Contains(p.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// containsOracle is Polygon.Contains without its box reject: the boundary
// pre-check, then even-odd ray casting.
func containsOracle(pg Polygon, p Point) bool {
	if len(pg) < 3 {
		return false
	}
	for i := range pg {
		e := Segment{pg[i], pg[(i+1)%len(pg)]}
		if e.DistToPoint(p) < Eps {
			return true
		}
	}
	inside := false
	n := len(pg)
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := pg[i], pg[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xint := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xint {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// TestQuickPolygonContainsMatchesOracle: the box reject changes no answer.
// Polygons are random rectangles and star-shaped polygons; probes are
// random points around the box, and points exactly on, Eps/2 outside and
// 2·Eps outside each box edge, both at the vertex that spans that edge and
// at a random place along it.
func TestQuickPolygonContainsMatchesOracle(t *testing.T) {
	f := func(seed uint64, cx, cy float64) bool {
		r := rand.New(rand.NewPCG(seed, 46))
		c := qpt(cx, cy)
		var pg Polygon
		if r.IntN(3) == 0 {
			pg = Rect(c.X, c.Y, c.X+0.5+20*r.Float64(), c.Y+0.5+20*r.Float64())
		} else {
			n := 3 + r.IntN(8)
			for i := 0; i < n; i++ {
				a := 2 * math.Pi * (float64(i) + r.Float64()) / float64(n)
				rad := 0.5 + 20*r.Float64()
				pg = append(pg, Pt(c.X+rad*math.Cos(a), c.Y+rad*math.Sin(a)))
			}
		}
		bb := pg.BBox()
		probes := append([]Point(nil), pg...)
		for i := 0; i < 32; i++ {
			probes = append(probes, Pt(bb.Min.X-2+r.Float64()*(bb.Width()+4), bb.Min.Y-2+r.Float64()*(bb.Height()+4)))
		}
		for _, v := range pg {
			alongX := bb.Min.X + r.Float64()*bb.Width()
			alongY := bb.Min.Y + r.Float64()*bb.Height()
			for _, d := range []float64{0, Eps / 2, 2 * Eps} {
				probes = append(probes,
					Pt(bb.Min.X-d, v.Y), Pt(bb.Max.X+d, v.Y), Pt(v.X, bb.Min.Y-d), Pt(v.X, bb.Max.Y+d),
					Pt(bb.Min.X-d, alongY), Pt(bb.Max.X+d, alongY), Pt(alongX, bb.Min.Y-d), Pt(alongX, bb.Max.Y+d))
			}
		}
		for _, p := range probes {
			if pg.Contains(p) != containsOracle(pg, p) {
				t.Logf("polygon %v, point %v: Contains %v", pg, p, pg.Contains(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickWallCrossingsParity: a horizontal path from strictly inside a
// closed rectangle of walls to strictly outside crosses an odd number of
// walls. The ray is kept horizontal through edge interiors — a path grazing
// a polygon corner legitimately touches two adjacent edges at their shared
// endpoint and breaks naive parity, which is exactly why line-of-sight
// queries in the toolkit count crossings rather than assume parity.
func TestQuickWallCrossingsParity(t *testing.T) {
	walls := NewWallSet(Rect(0, 0, 100, 100).Edges())
	f := func(ix, iy, ox float64) bool {
		in := Pt(1+math.Abs(math.Mod(ix, 98)), 1+math.Abs(math.Mod(iy, 98)))
		out := Pt(105+math.Abs(math.Mod(ox, 100)), in.Y)
		n := walls.Crossings(in, out)
		return n%2 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
