package geom

import (
	"math"
	"testing"
)

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if d := p.Dist(q); math.Abs(d-5) > Eps {
		t.Errorf("Dist = %v, want 5", d)
	}
	if got := p.Add(q); !got.Eq(Pt(5, 8)) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Eq(Pt(3, 4)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); math.Abs(got-16) > Eps {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); math.Abs(got-(1*6-2*4)) > Eps {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Lerp(q, 0.5); !got.Eq(Pt(2.5, 4)) {
		t.Errorf("Lerp = %v", got)
	}
	if got := Pt(3, 4).Unit().Norm(); math.Abs(got-1) > Eps {
		t.Errorf("Unit norm = %v", got)
	}
	if got := Pt(0, 0).Unit(); !got.Eq(Pt(0, 0)) {
		t.Errorf("zero Unit = %v", got)
	}
}

func TestPoint3(t *testing.T) {
	p := Pt3(1, 2, 3)
	if got := p.XY(); !got.Eq(Pt(1, 2)) {
		t.Errorf("XY = %v", got)
	}
	if d := p.Dist(Pt3(1, 2, 7)); math.Abs(d-4) > Eps {
		t.Errorf("Dist = %v", d)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		a, b Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), true},    // crossing
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(5, 5)), true},       // T-touch
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 1), Pt(10, 1)), false},     // parallel
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 2), Pt(3, 3)), false},       // collinear disjoint
		{Seg(Pt(0, 0), Pt(5, 5)), Seg(Pt(3, 3), Pt(8, 8)), true},        // collinear overlap
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(20, 0)), true},     // endpoint touch
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(11, -1), Pt(11, 1)), false},   // near miss
		{Seg(Pt(0, 0), Pt(0, 10)), Seg(Pt(-5, 5), Pt(5, 5)), true},      // vertical crossed
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0.01), Pt(5, 5)), false},   // just above
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, -5), Pt(5, -0.01)), false}, // just below
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	if got := s.ClosestPoint(Pt(5, 3)); !got.Eq(Pt(5, 0)) {
		t.Errorf("ClosestPoint = %v", got)
	}
	if got := s.ClosestPoint(Pt(-4, 3)); !got.Eq(Pt(0, 0)) {
		t.Errorf("ClosestPoint clamp = %v", got)
	}
	if d := s.DistToPoint(Pt(5, 3)); math.Abs(d-3) > Eps {
		t.Errorf("DistToPoint = %v", d)
	}
}

func TestBBox(t *testing.T) {
	b := BBoxOf(Pt(1, 2), Pt(5, 1), Pt(3, 7))
	if b.Min != Pt(1, 1) || b.Max != Pt(5, 7) {
		t.Fatalf("BBoxOf = %+v", b)
	}
	if !b.Contains(Pt(3, 3)) || b.Contains(Pt(10, 10)) {
		t.Error("Contains broken")
	}
	if b.Area() != 24 {
		t.Errorf("Area = %v", b.Area())
	}
	e := EmptyBBox()
	if !e.IsEmpty() || e.Area() != 0 {
		t.Error("EmptyBBox not empty")
	}
	if got := e.Union(b); got != b {
		t.Error("Union with empty is not identity")
	}
	if e.Intersects(b) {
		t.Error("empty box intersects")
	}
	if d := b.DistToPoint(Pt(8, 1)); math.Abs(d-3) > Eps {
		t.Errorf("DistToPoint = %v", d)
	}
	if d := b.DistToPoint(Pt(3, 3)); d != 0 {
		t.Errorf("inside DistToPoint = %v", d)
	}
	g := b.Expand(1)
	if g.Min != Pt(0, 0) || g.Max != Pt(6, 8) {
		t.Errorf("Expand = %+v", g)
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	sq := Rect(0, 0, 10, 10)
	if a := sq.Area(); math.Abs(a-100) > Eps {
		t.Errorf("Area = %v", a)
	}
	if c := sq.Centroid(); !c.Eq(Pt(5, 5)) {
		t.Errorf("Centroid = %v", c)
	}
	// Winding must not affect absolute area.
	rev := Polygon{sq[3], sq[2], sq[1], sq[0]}
	if a := rev.Area(); math.Abs(a-100) > Eps {
		t.Errorf("reversed Area = %v", a)
	}
	// L-shape.
	l := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	if a := l.Area(); math.Abs(a-12) > Eps {
		t.Errorf("L Area = %v", a)
	}
	if l.IsConvex() {
		t.Error("L-shape reported convex")
	}
	if !sq.IsConvex() {
		t.Error("square reported non-convex")
	}
}

func TestPolygonContains(t *testing.T) {
	l := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	inside := []Point{Pt(1, 1), Pt(3, 1), Pt(1, 3), Pt(0.5, 3.5)}
	outside := []Point{Pt(3, 3), Pt(5, 1), Pt(-1, 2), Pt(3, 2.5)}
	for _, p := range inside {
		if !l.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range outside {
		if l.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
	// Boundary points count as contained.
	if !l.Contains(Pt(0, 0)) || !l.Contains(Pt(2, 3)) {
		t.Error("boundary points should be contained")
	}
}

func TestPolygonSplitByLine(t *testing.T) {
	sq := Rect(0, 0, 10, 10)
	left, right := sq.SplitByLine(Pt(5, -1), Pt(5, 11))
	if math.Abs(left.Area()-50) > 1e-6 || math.Abs(right.Area()-50) > 1e-6 {
		t.Errorf("split areas = %v, %v", left.Area(), right.Area())
	}
	if math.Abs(left.Area()+right.Area()-sq.Area()) > 1e-6 {
		t.Error("split does not preserve area")
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := Rect(0, 0, 1, 1).Validate(); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
	if err := (Polygon{Pt(0, 0), Pt(1, 1)}).Validate(); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	if err := (Polygon{Pt(0, 0), Pt(0, 0), Pt(1, 1)}).Validate(); err == nil {
		t.Error("repeated-vertex polygon accepted")
	}
	if err := (Polygon{Pt(0, 0), Pt(1, 0), Pt(2, 0)}).Validate(); err == nil {
		t.Error("zero-area polygon accepted")
	}
}

func TestPolygonSelfIntersects(t *testing.T) {
	bow := Polygon{Pt(0, 0), Pt(10, 10), Pt(10, 0), Pt(0, 10)}
	if !bow.SelfIntersects() {
		t.Error("bow-tie not detected")
	}
	if Rect(0, 0, 5, 5).SelfIntersects() {
		t.Error("rectangle flagged self-intersecting")
	}
}

func TestAspectRatio(t *testing.T) {
	if ar := Rect(0, 0, 10, 2).AspectRatio(); math.Abs(ar-5) > Eps {
		t.Errorf("AspectRatio = %v", ar)
	}
	if ar := Rect(0, 0, 2, 10).AspectRatio(); math.Abs(ar-5) > Eps {
		t.Errorf("AspectRatio (tall) = %v", ar)
	}
}

func TestWallSet(t *testing.T) {
	ws := NewWallSet([]Segment{
		Seg(Pt(5, 0), Pt(5, 10)),
		Seg(Pt(0, 5), Pt(10, 5)),
	})
	if ws.Len() != 2 {
		t.Fatalf("Len = %d", ws.Len())
	}
	if n := ws.Crossings(Pt(0, 0), Pt(10, 10)); n != 2 {
		t.Errorf("Crossings diagonal = %d, want 2", n)
	}
	if n := ws.Crossings(Pt(0, 0), Pt(2, 2)); n != 0 {
		t.Errorf("Crossings local = %d, want 0", n)
	}
	if n := ws.Crossings(Pt(0, 0), Pt(10, 0.1)); n != 1 {
		t.Errorf("Crossings past the vertical wall = %d, want 1", n)
	}
	ws.Add(Seg(Pt(0, 8), Pt(10, 8)))
	if n := ws.Crossings(Pt(1, 7), Pt(1, 9)); n != 1 {
		t.Errorf("Crossings after Add = %d", n)
	}
}

func TestDistToBoundary(t *testing.T) {
	sq := Rect(0, 0, 10, 10)
	if d := sq.DistToBoundary(Pt(5, 5)); math.Abs(d-5) > Eps {
		t.Errorf("center boundary dist = %v", d)
	}
	if d := sq.DistToBoundary(Pt(12, 5)); math.Abs(d-2) > Eps {
		t.Errorf("outside boundary dist = %v", d)
	}
	if d := sq.DistToBoundary(Pt(10, 5)); d > Eps {
		t.Errorf("on-boundary dist = %v", d)
	}
}
