package geom

import (
	"math/rand/v2"
	"testing"
)

// bboxLoopCrossings is WallSet.Crossings as it was written before the wall
// boxes went flat: a BBox per wall, tested with BBox.Intersects (empty-box
// checks included) before the segment test. It is kept as the oracle the
// flat kernel must reproduce exactly.
func bboxLoopCrossings(walls []Segment, a, b Point) int {
	path := Segment{a, b}
	pb := path.BBox()
	n := 0
	for _, w := range walls {
		if !pb.Intersects(w.BBox()) {
			continue
		}
		if path.Intersects(w) {
			n++
		}
	}
	return n
}

// TestCrossingsMatchesBBoxLoop compares the flat kernel with the BBox loop on
// generated walls and paths built to sit on the kernel's edges: axis-aligned
// and zero-length walls, walls collinear with and overlapping the path,
// paths ending on or passing through wall endpoints, and coordinates nudged
// by fractions and multiples of Eps so boxes touch, overlap or miss within
// the tolerance.
func TestCrossingsMatchesBBoxLoop(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	lattice := []float64{-1, 0, 1, 2, 5, 10}
	nudges := []float64{0, 0, 0, Eps / 2, -Eps / 2, Eps, -Eps, 1.5 * Eps, -1.5 * Eps, 3 * Eps, -3 * Eps}
	coord := func() float64 {
		return lattice[r.IntN(len(lattice))] + nudges[r.IntN(len(nudges))]
	}
	point := func() Point { return Pt(coord(), coord()) }
	nudge := func(p Point) Point {
		return Pt(p.X+nudges[r.IntN(len(nudges))], p.Y+nudges[r.IntN(len(nudges))])
	}
	kinds := map[string]int{}
	crossed := 0
	for iter := 0; iter < 20000; iter++ {
		a, b := point(), point()
		walls := make([]Segment, 1+r.IntN(8))
		for i := range walls {
			p := point()
			var w Segment
			switch k := r.IntN(6); k {
			case 0:
				w, kinds["random"] = Seg(p, point()), kinds["random"]+1
			case 1: // axis-aligned
				q := point()
				if r.IntN(2) == 0 {
					q.X = p.X
				} else {
					q.Y = p.Y
				}
				w, kinds["axis"] = Seg(p, q), kinds["axis"]+1
			case 2:
				w, kinds["zero-length"] = Seg(p, p), kinds["zero-length"]+1
			case 3: // collinear with the path, overlapping it or not
				fr := []float64{-0.5, 0, 0.25, 0.5, 1, 1.5}
				w = Seg(a.Lerp(b, fr[r.IntN(len(fr))]), nudge(a.Lerp(b, fr[r.IntN(len(fr))])))
				kinds["collinear"]++
			case 4: // the path ends on a wall endpoint
				w = Seg(nudge(b), p)
				kinds["end-on-endpoint"]++
			default: // the path passes through a wall endpoint
				d := Pt(coord()-p.X, coord()-p.Y)
				a, b = p.Sub(d), nudge(p.Add(d))
				w = Seg(p, point())
				kinds["through-endpoint"]++
			}
			walls[i] = w
		}
		ws := NewWallSet(walls)
		got, want := ws.Crossings(a, b), bboxLoopCrossings(walls, a, b)
		if got != want {
			t.Fatalf("path %v→%v over %v: flat kernel counts %d, BBox loop %d", a, b, walls, got, want)
		}
		crossed += want
		if got, want := ws.Crossings(b, a), bboxLoopCrossings(walls, b, a); got != want {
			t.Fatalf("reversed path %v→%v over %v: flat kernel counts %d, BBox loop %d", b, a, walls, got, want)
		}
	}
	if crossed < 10000 {
		t.Errorf("only %d crossings over all paths: the comparison is close to vacuous", crossed)
	}
	for _, k := range []string{"random", "axis", "zero-length", "collinear", "end-on-endpoint", "through-endpoint"} {
		if kinds[k] == 0 {
			t.Errorf("no %s wall generated", k)
		}
	}
}
