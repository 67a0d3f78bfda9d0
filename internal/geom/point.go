// Package geom provides the 2D/3D computational geometry substrate used by
// the Vita toolkit: points, segments, bounding boxes, polygons, line-of-sight
// tests and polygon decomposition helpers.
//
// All coordinates are in meters. The package is deliberately dependency-free
// and allocation-conscious: it is on the hot path of trajectory simulation
// and RSSI generation.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by approximate comparisons throughout the package.
const Eps = 1e-9

// Point is a location in the 2D plane of a single floor.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q treated as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q treated as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp linearly interpolates from p to q by fraction t in [0,1].
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Unit returns the unit vector in the direction of p. The zero vector is
// returned unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n < Eps {
		return Point{}
	}
	return Point{p.X / n, p.Y / n}
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) < Eps && math.Abs(p.Y-q.Y) < Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Point3 is a location in 3D space; Z is the height above the building datum.
// It is used for staircase boundary vertices where floor membership is
// resolved from elevation.
type Point3 struct {
	X, Y, Z float64
}

// Pt3 is shorthand for constructing a Point3.
func Pt3(x, y, z float64) Point3 { return Point3{X: x, Y: y, Z: z} }

// XY projects the point onto the floor plane.
func (p Point3) XY() Point { return Point{p.X, p.Y} }

// Dist returns the Euclidean distance between p and q in 3D.
func (p Point3) Dist(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
