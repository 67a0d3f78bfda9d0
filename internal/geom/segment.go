package geom

import "math"

// Segment is the closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point { return s.A.Lerp(s.B, 0.5) }

// At returns the point a fraction t of the way from A to B.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// BBox returns the axis-aligned bounding box of the segment.
func (s Segment) BBox() BBox {
	return BBox{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// orientation returns >0 if a→b→c turns counter-clockwise, <0 for clockwise,
// 0 for collinear (within Eps scaled by magnitude).
func orientation(a, b, c Point) float64 {
	return b.Sub(a).Cross(c.Sub(a))
}

// onSegment reports whether collinear point p lies on segment s.
func (s Segment) onSegment(p Point) bool {
	return p.X <= math.Max(s.A.X, s.B.X)+Eps && p.X >= math.Min(s.A.X, s.B.X)-Eps &&
		p.Y <= math.Max(s.A.Y, s.B.Y)+Eps && p.Y >= math.Min(s.A.Y, s.B.Y)-Eps
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := orientation(s.A, s.B, t.A)
	d2 := orientation(s.A, s.B, t.B)
	d3 := orientation(t.A, t.B, s.A)
	d4 := orientation(t.A, t.B, s.B)

	if ((d1 > Eps && d2 < -Eps) || (d1 < -Eps && d2 > Eps)) &&
		((d3 > Eps && d4 < -Eps) || (d3 < -Eps && d4 > Eps)) {
		return true
	}
	if math.Abs(d1) <= Eps && s.onSegment(t.A) {
		return true
	}
	if math.Abs(d2) <= Eps && s.onSegment(t.B) {
		return true
	}
	if math.Abs(d3) <= Eps && t.onSegment(s.A) {
		return true
	}
	if math.Abs(d4) <= Eps && t.onSegment(s.B) {
		return true
	}
	return false
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 < Eps {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return s.A.Add(d.Scale(t))
}

// DistToPoint returns the distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	return s.ClosestPoint(p).Dist(p)
}
