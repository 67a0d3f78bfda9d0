package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertices in order (either winding).
// The closing edge from the last vertex back to the first is implicit.
type Polygon []Point

// Rect returns the axis-aligned rectangle polygon with the given corners.
func Rect(minX, minY, maxX, maxY float64) Polygon {
	return Polygon{
		{minX, minY}, {maxX, minY}, {maxX, maxY}, {minX, maxY},
	}
}

// SignedArea returns the signed area; positive when vertices are
// counter-clockwise.
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	var s float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		s += p.Cross(q)
	}
	return s / 2
}

// Area returns the absolute area of the polygon.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Centroid returns the area centroid. Degenerate polygons fall back to the
// vertex average.
func (pg Polygon) Centroid() Point {
	a := pg.SignedArea()
	if math.Abs(a) < Eps {
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		if len(pg) > 0 {
			c = c.Scale(1 / float64(len(pg)))
		}
		return c
	}
	var cx, cy float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		f := p.Cross(q)
		cx += (p.X + q.X) * f
		cy += (p.Y + q.Y) * f
	}
	return Point{cx / (6 * a), cy / (6 * a)}
}

// BBox returns the axis-aligned bounding box of the polygon.
func (pg Polygon) BBox() BBox { return BBoxOf(pg...) }

// Edges returns the boundary segments of the polygon.
func (pg Polygon) Edges() []Segment {
	out := make([]Segment, 0, len(pg))
	for i, p := range pg {
		out = append(out, Segment{p, pg[(i+1)%len(pg)]})
	}
	return out
}

// Contains reports whether p is strictly inside or on the boundary of the
// polygon, using the even-odd ray casting rule with a boundary pre-check.
// A point more than Eps outside the polygon's box is rejected first: it can
// be neither inside nor within Eps of an edge.
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	minX, minY, maxX, maxY := pg[0].X, pg[0].Y, pg[0].X, pg[0].Y
	for _, q := range pg[1:] {
		minX, maxX = min(minX, q.X), max(maxX, q.X)
		minY, maxY = min(minY, q.Y), max(maxY, q.Y)
	}
	if p.X < minX-Eps || p.X > maxX+Eps || p.Y < minY-Eps || p.Y > maxY+Eps {
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

// IsConvex reports whether the polygon is convex (collinear runs allowed).
func (pg Polygon) IsConvex() bool {
	if len(pg) < 4 {
		return len(pg) == 3
	}
	sign := 0
	n := len(pg)
	for i := 0; i < n; i++ {
		c := orientation(pg[i], pg[(i+1)%n], pg[(i+2)%n])
		if math.Abs(c) < Eps {
			continue
		}
		s := 1
		if c < 0 {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if sign != s {
			return false
		}
	}
	return true
}

// AspectRatio returns bounding-box width/height ratio, always >= 1. It is the
// shape-balance criterion used by the partition decomposer.
func (pg Polygon) AspectRatio() float64 {
	b := pg.BBox()
	w, h := b.Width(), b.Height()
	if w < Eps || h < Eps {
		return math.Inf(1)
	}
	if w > h {
		return w / h
	}
	return h / w
}

// ClosestBoundaryPoint returns the point on the polygon boundary closest to p.
func (pg Polygon) ClosestBoundaryPoint(p Point) Point {
	best := pg[0]
	bestD := math.Inf(1)
	for _, e := range pg.Edges() {
		c := e.ClosestPoint(p)
		if d := c.Dist(p); d < bestD {
			bestD, best = d, c
		}
	}
	return best
}

// DistToBoundary returns the distance from p to the polygon boundary.
func (pg Polygon) DistToBoundary(p Point) float64 {
	return pg.ClosestBoundaryPoint(p).Dist(p)
}

// ClipHalfPlane clips the polygon against the half-plane on the left of the
// directed line a→b (Sutherland–Hodgman). The result may be empty.
func (pg Polygon) ClipHalfPlane(a, b Point) Polygon {
	if len(pg) == 0 {
		return nil
	}
	dir := b.Sub(a)
	inside := func(p Point) bool { return dir.Cross(p.Sub(a)) >= -Eps }
	intersect := func(p, q Point) Point {
		d := q.Sub(p)
		denom := dir.Cross(d)
		if math.Abs(denom) < Eps {
			return p
		}
		// Solve cross(dir, p + t*d - a) = 0 for t.
		t := dir.Cross(a.Sub(p)) / denom
		return p.Add(d.Scale(t))
	}
	var out Polygon
	n := len(pg)
	for i := 0; i < n; i++ {
		cur, next := pg[i], pg[(i+1)%n]
		cin, nin := inside(cur), inside(next)
		if cin {
			out = append(out, cur)
		}
		if cin != nin {
			out = append(out, intersect(cur, next))
		}
	}
	return out.dedup()
}

// dedup removes consecutive duplicate vertices.
func (pg Polygon) dedup() Polygon {
	if len(pg) == 0 {
		return pg
	}
	out := pg[:0:0]
	for _, p := range pg {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	if len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// SplitByLine splits the polygon by the infinite line through a and b and
// returns the two (possibly empty) halves: left of a→b first.
func (pg Polygon) SplitByLine(a, b Point) (left, right Polygon) {
	return pg.ClipHalfPlane(a, b), pg.ClipHalfPlane(b, a)
}

// Validate returns an error when the polygon is degenerate: fewer than three
// vertices, repeated consecutive vertices, or (near-)zero area.
func (pg Polygon) Validate() error {
	if len(pg) < 3 {
		return fmt.Errorf("geom: polygon has %d vertices, need >= 3", len(pg))
	}
	for i, p := range pg {
		if p.Eq(pg[(i+1)%len(pg)]) {
			return fmt.Errorf("geom: polygon has repeated vertex at index %d", i)
		}
	}
	if pg.Area() < Eps {
		return fmt.Errorf("geom: polygon has zero area")
	}
	return nil
}

// SelfIntersects reports whether non-adjacent edges of the polygon cross.
// It is used by the DBI error identification step.
func (pg Polygon) SelfIntersects() bool {
	edges := pg.Edges()
	n := len(edges)
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if i == 0 && j == n-1 {
				continue // adjacent via the closing edge
			}
			if edges[i].Intersects(edges[j]) {
				return true
			}
		}
	}
	return false
}
