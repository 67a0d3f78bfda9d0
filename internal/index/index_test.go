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

func TestRTreeEmptyAndSingle(t *testing.T) {
	tree := BulkLoad(nil)
	if got := tree.Search(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}, nil); len(got) != 0 || tree.Len() != 0 {
		t.Errorf("empty tree: Len %d, %d results", tree.Len(), len(got))
	}
	tree = BulkLoad([]Item{&boxItem{id: 1, bb: geom.BBox{Min: geom.Pt(5, 5), Max: geom.Pt(6, 6)}}})
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if got := tree.SearchPoint(geom.Pt(5.5, 5.5), nil); len(got) != 1 || tree.Len() != 1 {
		t.Errorf("single-item tree: Len %d, %d results", tree.Len(), len(got))
	}
	if got := tree.SearchPoint(geom.Pt(7, 7), nil); len(got) != 0 {
		t.Errorf("single-item tree: a point outside it found %d results", len(got))
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
