package model

import (
	"fmt"
	"sort"

	"vita/internal/geom"
)

// Floor is one storey of a building.
type Floor struct {
	Level      int // 0 = ground floor
	Name       string
	Elevation  float64 // meters above building datum
	Height     float64 // floor-to-ceiling height
	Partitions []*Partition
	Doors      []*Door
	Obstacles  []*Obstacle

	byID map[string]*Partition
}

// NewFloor returns an empty floor at the given level.
func NewFloor(level int, elevation, height float64) *Floor {
	return &Floor{
		Level:     level,
		Elevation: elevation,
		Height:    height,
		byID:      make(map[string]*Partition),
	}
}

// AddPartition appends p, rejecting duplicate IDs and wrong-floor partitions.
func (f *Floor) AddPartition(p *Partition) error {
	if p.Floor != f.Level {
		return fmt.Errorf("model: partition %s declares floor %d, added to floor %d", p.ID, p.Floor, f.Level)
	}
	if _, dup := f.byID[p.ID]; dup {
		return fmt.Errorf("model: duplicate partition ID %s on floor %d", p.ID, f.Level)
	}
	f.Partitions = append(f.Partitions, p)
	f.byID[p.ID] = p
	return nil
}

// RemovePartition deletes the partition with the given ID, returning whether
// it existed. Used by the decomposer when replacing an irregular partition
// with its sub-partitions.
func (f *Floor) RemovePartition(id string) bool {
	if _, ok := f.byID[id]; !ok {
		return false
	}
	delete(f.byID, id)
	for i, p := range f.Partitions {
		if p.ID == id {
			f.Partitions = append(f.Partitions[:i], f.Partitions[i+1:]...)
			break
		}
	}
	return true
}

// Partition returns the partition with the given ID.
func (f *Floor) Partition(id string) (*Partition, bool) {
	p, ok := f.byID[id]
	return p, ok
}

// PartitionAt returns the partition containing pt, preferring the smallest
// containing partition when decomposition nests boundaries.
func (f *Floor) PartitionAt(pt geom.Point) (*Partition, bool) {
	var best *Partition
	bestArea := 0.0
	for _, p := range f.Partitions {
		if p.Contains(pt) {
			a := p.Polygon.Area()
			if best == nil || a < bestArea {
				best, bestArea = p, a
			}
		}
	}
	return best, best != nil
}

// BBox returns the bounding box of all partitions on the floor.
func (f *Floor) BBox() geom.BBox {
	b := geom.EmptyBBox()
	for _, p := range f.Partitions {
		b = b.Union(p.Bounds())
	}
	return b
}

// WallSet builds the set of wall segments on this floor for line-of-sight
// computations: every partition boundary edge, with gaps punched at doors
// (clearance = door width), plus all obstacle edges.
func (f *Floor) WallSet() *geom.WallSet {
	ws := geom.NewWallSet(nil)
	for _, p := range f.Partitions {
		for _, e := range p.Polygon.Edges() {
			for _, piece := range punchDoors(e, f.Doors) {
				ws.Add(piece)
			}
		}
	}
	for _, o := range f.Obstacles {
		for _, e := range o.Polygon.Edges() {
			ws.Add(e)
		}
	}
	return ws
}

// punchDoors removes from edge the intervals covered by door openings whose
// position lies (near) on the edge.
func punchDoors(edge geom.Segment, doors []*Door) []geom.Segment {
	length := edge.Length()
	if length < geom.Eps {
		return nil
	}
	type gap struct{ lo, hi float64 }
	var gaps []gap
	for _, d := range doors {
		if edge.DistToPoint(d.Position) > 0.25 {
			continue
		}
		c := edge.ClosestPoint(d.Position)
		t := c.Dist(edge.A) / length
		half := (d.Width / 2) / length
		if half <= 0 {
			half = 0.5 / length
		}
		gaps = append(gaps, gap{lo: t - half, hi: t + half})
	}
	if len(gaps) == 0 {
		return []geom.Segment{edge}
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].lo < gaps[j].lo })
	var out []geom.Segment
	cur := 0.0
	for _, g := range gaps {
		if g.lo > cur {
			out = append(out, geom.Seg(edge.At(cur), edge.At(min1(g.lo))))
		}
		if g.hi > cur {
			cur = g.hi
		}
	}
	if cur < 1 {
		out = append(out, geom.Seg(edge.At(cur), edge.B))
	}
	return out
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}
