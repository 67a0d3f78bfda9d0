package index

import (
	"sort"
	"testing"
	"testing/quick"

	"vita/internal/geom"
	"vita/internal/rng"
)

// boxItem is a minimal Item for tests.
type boxItem struct {
	id int
	bb geom.BBox
}

func (b *boxItem) Bounds() geom.BBox { return b.bb }

func randomItems(r *rng.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		x, y := r.Range(0, 1000), r.Range(0, 1000)
		items[i] = &boxItem{
			id: i,
			bb: geom.BBox{Min: geom.Pt(x, y), Max: geom.Pt(x+r.Range(0, 20), y+r.Range(0, 20))},
		}
	}
	return items
}

func ids(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.(*boxItem).id
	}
	sort.Ints(out)
	return out
}

func bruteSearch(items []Item, q geom.BBox) []Item {
	var out []Item
	for _, it := range items {
		if it.Bounds().Intersects(q) {
			out = append(out, it)
		}
	}
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRTreeInsertSearchMatchesBruteForce(t *testing.T) {
	r := rng.New(1)
	items := randomItems(r, 500)
	tree := NewRTree()
	for _, it := range items {
		tree.Insert(it)
	}
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for i := 0; i < 200; i++ {
		q := geom.BBox{
			Min: geom.Pt(r.Range(0, 1000), r.Range(0, 1000)),
		}
		q.Max = q.Min.Add(geom.Pt(r.Range(0, 100), r.Range(0, 100)))
		got := ids(tree.Search(q, nil))
		want := ids(bruteSearch(items, q))
		if !equalIDs(got, want) {
			t.Fatalf("query %d mismatch: got %d items, want %d", i, len(got), len(want))
		}
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	r := rng.New(2)
	items := randomItems(r, 777)
	tree := BulkLoad(items)
	if tree.Len() != 777 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for i := 0; i < 200; i++ {
		q := geom.BBox{Min: geom.Pt(r.Range(0, 1000), r.Range(0, 1000))}
		q.Max = q.Min.Add(geom.Pt(r.Range(0, 120), r.Range(0, 120)))
		got := ids(tree.Search(q, nil))
		want := ids(bruteSearch(items, q))
		if !equalIDs(got, want) {
			t.Fatalf("bulk query %d mismatch: got %d, want %d", i, len(got), len(want))
		}
	}
}

func TestRTreeNearest(t *testing.T) {
	r := rng.New(3)
	items := randomItems(r, 300)
	tree := BulkLoad(items)
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		k := 1 + r.Intn(10)
		got := tree.Nearest(p, k)
		if len(got) != k {
			t.Fatalf("Nearest returned %d, want %d", len(got), k)
		}
		// Results must be sorted by distance and match brute force distance
		// set.
		var bruteD []float64
		for _, it := range items {
			bruteD = append(bruteD, it.Bounds().DistToPoint(p))
		}
		sort.Float64s(bruteD)
		for i, it := range got {
			d := it.Bounds().DistToPoint(p)
			if i > 0 && d < got[i-1].Bounds().DistToPoint(p)-1e-9 {
				t.Fatal("Nearest results unsorted")
			}
			if d > bruteD[i]+1e-9 {
				t.Fatalf("Nearest[%d] dist %v exceeds true k-th %v", i, d, bruteD[i])
			}
		}
	}
}

func TestRTreeEmptyAndSingle(t *testing.T) {
	tree := NewRTree()
	if got := tree.Search(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}, nil); len(got) != 0 {
		t.Error("empty tree returned results")
	}
	if got := tree.Nearest(geom.Pt(0, 0), 3); got != nil {
		t.Error("empty tree Nearest non-nil")
	}
	it := &boxItem{id: 1, bb: geom.BBox{Min: geom.Pt(5, 5), Max: geom.Pt(6, 6)}}
	tree.Insert(it)
	if got := tree.SearchPoint(geom.Pt(5.5, 5.5), nil); len(got) != 1 {
		t.Errorf("single-item search = %d results", len(got))
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	r := rng.New(4)
	items := randomItems(r, 400)
	bounds := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1030, 1030)}
	g := NewGrid(bounds, 50)
	for _, it := range items {
		g.Insert(it)
	}
	if g.Len() != 400 {
		t.Fatalf("Len = %d", g.Len())
	}
	for i := 0; i < 200; i++ {
		q := geom.BBox{Min: geom.Pt(r.Range(0, 1000), r.Range(0, 1000))}
		q.Max = q.Min.Add(geom.Pt(r.Range(0, 150), r.Range(0, 150)))
		got := ids(g.Search(q, nil))
		want := ids(bruteSearch(items, q))
		if !equalIDs(got, want) {
			t.Fatalf("grid query %d mismatch: got %d, want %d", i, len(got), len(want))
		}
	}
}

func TestGridDegenerate(t *testing.T) {
	g := NewGrid(geom.EmptyBBox(), 10)
	it := &boxItem{id: 0, bb: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}}
	g.Insert(it)
	if got := g.Search(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(2, 2)}, nil); len(got) != 1 {
		t.Errorf("degenerate grid search = %d", len(got))
	}
	if g2 := NewGrid(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}, -1); g2 == nil {
		t.Error("negative cell size should still build")
	}
}

// TestQuickRTreeSearchSupersetOfContainedPoints: any point inside an item's
// box must retrieve that item.
func TestQuickRTreeSearchSupersetOfContainedPoints(t *testing.T) {
	r := rng.New(6)
	items := randomItems(r, 200)
	tree := BulkLoad(items)
	f := func(idx uint, fx, fy float64) bool {
		it := items[idx%uint(len(items))].(*boxItem)
		u := abs1(fx)
		v := abs1(fy)
		p := geom.Pt(
			it.bb.Min.X+u*it.bb.Width(),
			it.bb.Min.Y+v*it.bb.Height(),
		)
		for _, got := range tree.SearchPoint(p, nil) {
			if got.(*boxItem).id == it.id {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs1(v float64) float64 {
	if v < 0 {
		v = -v
	}
	for v > 1 {
		v /= 10
	}
	return v
}
