package geom

import "math"

// BBox is an axis-aligned bounding box. A valid box satisfies Min.X <= Max.X
// and Min.Y <= Max.Y; EmptyBBox() is the identity for Union.
type BBox struct {
	Min, Max Point
}

// EmptyBBox returns the empty box, the identity element for Union.
func EmptyBBox() BBox {
	return BBox{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// BBoxOf returns the smallest box containing all pts. With no points it
// returns EmptyBBox().
func BBoxOf(pts ...Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y }

// Width returns the extent along X (0 for empty boxes).
func (b BBox) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.Max.X - b.Min.X
}

// Height returns the extent along Y (0 for empty boxes).
func (b BBox) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.Max.Y - b.Min.Y
}

// Area returns the box area (0 for empty boxes).
func (b BBox) Area() float64 { return b.Width() * b.Height() }

// Center returns the box center.
func (b BBox) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2}
}

// Contains reports whether p lies inside or on the boundary of the box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X-Eps && p.X <= b.Max.X+Eps &&
		p.Y >= b.Min.Y-Eps && p.Y <= b.Max.Y+Eps
}

// Intersects reports whether the two boxes share any point.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.X <= o.Max.X+Eps && o.Min.X <= b.Max.X+Eps &&
		b.Min.Y <= o.Max.Y+Eps && o.Min.Y <= b.Max.Y+Eps
}

// Union returns the smallest box containing both boxes.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		Min: Point{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// ExtendPoint returns the smallest box containing b and p.
func (b BBox) ExtendPoint(p Point) BBox {
	return b.Union(BBox{Min: p, Max: p})
}

// Expand returns the box grown by r on every side.
func (b BBox) Expand(r float64) BBox {
	if b.IsEmpty() {
		return b
	}
	return BBox{
		Min: Point{b.Min.X - r, b.Min.Y - r},
		Max: Point{b.Max.X + r, b.Max.Y + r},
	}
}

// DistToPoint returns the distance from p to the box (0 when inside).
func (b BBox) DistToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(b.Min.X-p.X, p.X-b.Max.X))
	dy := math.Max(0, math.Max(b.Min.Y-p.Y, p.Y-b.Max.Y))
	return math.Hypot(dx, dy)
}
