package index

import (
	"math"

	"vita/internal/geom"
)

// Grid is a uniform grid index over Items. It serves as the ablation baseline
// for the R-tree (experiments.AblationIndex) and as the fast device-in-range
// lookup used during RSSI generation.
type Grid struct {
	bounds   geom.BBox
	cellSize float64
	cols     int
	rows     int
	cells    [][]Item
	size     int
}

// NewGrid returns a grid covering bounds with the given cell size. Degenerate
// bounds or non-positive cell sizes fall back to a single cell.
func NewGrid(bounds geom.BBox, cellSize float64) *Grid {
	if bounds.IsEmpty() || cellSize <= 0 {
		return &Grid{bounds: bounds, cellSize: 1, cols: 1, rows: 1, cells: make([][]Item, 1)}
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]Item, cols*rows),
	}
}

// Len returns the number of item references stored. Items spanning multiple
// cells are counted once.
func (g *Grid) Len() int { return g.size }

func (g *Grid) cellRange(b geom.BBox) (c0, r0, c1, r1 int) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	c0 = clamp(int((b.Min.X-g.bounds.Min.X)/g.cellSize), 0, g.cols-1)
	c1 = clamp(int((b.Max.X-g.bounds.Min.X)/g.cellSize), 0, g.cols-1)
	r0 = clamp(int((b.Min.Y-g.bounds.Min.Y)/g.cellSize), 0, g.rows-1)
	r1 = clamp(int((b.Max.Y-g.bounds.Min.Y)/g.cellSize), 0, g.rows-1)
	return
}

// Insert adds item to every cell its bounds overlap.
func (g *Grid) Insert(item Item) {
	c0, r0, c1, r1 := g.cellRange(item.Bounds())
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			i := r*g.cols + c
			g.cells[i] = append(g.cells[i], item)
		}
	}
	g.size++
}

// Search appends every distinct item intersecting query to dst.
func (g *Grid) Search(query geom.BBox, dst []Item) []Item {
	c0, r0, c1, r1 := g.cellRange(query)
	seen := make(map[Item]bool)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, it := range g.cells[r*g.cols+c] {
				if seen[it] {
					continue
				}
				seen[it] = true
				if it.Bounds().Intersects(query) {
					dst = append(dst, it)
				}
			}
		}
	}
	return dst
}
