package geom

import "math"

// WallSet is a collection of wall segments supporting line-of-sight queries.
// It underlies the obstacle-noise term Nob of the RSSI path loss model: the
// paper's Figure 3(a) example (device d1 behind walls measures a weaker
// signal than d2 at the same transmission distance) is realized by counting
// how many walls the direct path crosses.
//
// Each wall's bounding box is precomputed as four flat floats (min X, min Y,
// max X, max Y), so a query's box test reads them in place.
type WallSet struct {
	walls  []Segment
	bounds []float64
}

// NewWallSet builds a WallSet from wall segments.
func NewWallSet(walls []Segment) *WallSet {
	ws := &WallSet{walls: make([]Segment, 0, len(walls)), bounds: make([]float64, 0, 4*len(walls))}
	for _, w := range walls {
		ws.Add(w)
	}
	return ws
}

// Add appends a wall segment.
func (ws *WallSet) Add(w Segment) {
	ws.walls = append(ws.walls, w)
	ws.bounds = append(ws.bounds,
		math.Min(w.A.X, w.B.X), math.Min(w.A.Y, w.B.Y),
		math.Max(w.A.X, w.B.X), math.Max(w.A.Y, w.B.Y))
}

// Len returns the number of walls.
func (ws *WallSet) Len() int { return len(ws.walls) }

// Crossings returns the number of walls the segment from a to b crosses: the
// walls whose box overlaps the path's box within Eps (as BBox.Intersects
// decides) and that share a point with the path (Segment.Intersects).
func (ws *WallSet) Crossings(a, b Point) int {
	path := Segment{a, b}
	minX, maxX := math.Min(a.X, b.X), math.Max(a.X, b.X)
	minY, maxY := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
	n := 0
	for i, bs := 0, ws.bounds; len(bs) >= 4; i, bs = i+1, bs[4:] {
		if minX <= bs[2]+Eps && bs[0] <= maxX+Eps && minY <= bs[3]+Eps && bs[1] <= maxY+Eps &&
			path.Intersects(ws.walls[i]) {
			n++
		}
	}
	return n
}

// HasLineOfSight reports whether the straight path from a to b crosses no
// walls.
func (ws *WallSet) HasLineOfSight(a, b Point) bool {
	return ws.Crossings(a, b) == 0
}
