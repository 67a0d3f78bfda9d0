package topo

import (
	"fmt"

	"vita/internal/geom"
	"vita/internal/model"
)

// Limits of the irregular-partition decomposition besides its size
// criterion, Options.MaxArea.
const (
	// maxAspect splits any partition whose bounding-box aspect ratio
	// exceeds it.
	maxAspect = 4
	// maxDepth bounds the recursion (a safety net for degenerate shapes).
	maxDepth = 8
)

// Decompose performs the irregular-partition decomposition of §4.1: "rooms
// or hallways with irregular shapes are decomposed into balanced, smaller
// partitions according to their sizes and shapes". It replaces every
// partition larger than maxArea (m²; <= 0 disables the size criterion),
// longer than maxAspect or with reflex vertices by balanced sub-partitions,
// and inserts pass-through virtual doors along each cut so routing across
// the original space stays possible. Wall doors are homed afterwards, by
// ConnectDoors. It returns the number of partitions added (children minus
// removed parents).
func Decompose(b *model.Building, maxArea float64) (int, error) {
	added := 0
	for _, level := range b.FloorLevels() {
		f := b.Floors[level]
		// Snapshot: we mutate f.Partitions while iterating.
		originals := append([]*model.Partition(nil), f.Partitions...)
		for _, p := range originals {
			n, err := decomposePartition(f, p, maxArea)
			if err != nil {
				return added, err
			}
			added += n
		}
	}
	return added, nil
}

func needsSplit(poly geom.Polygon, maxArea float64, depth int) bool {
	if depth >= maxDepth {
		return false
	}
	if maxArea > 0 && poly.Area() > maxArea {
		return true
	}
	if poly.AspectRatio() > maxAspect {
		return true
	}
	return !poly.IsConvex()
}

func decomposePartition(f *model.Floor, p *model.Partition, maxArea float64) (int, error) {
	if !needsSplit(p.Polygon, maxArea, 0) {
		return 0, nil
	}
	pieces, cuts := splitRecursive(p.Polygon, maxArea, 0)
	if len(pieces) <= 1 {
		return 0, nil
	}
	if !f.RemovePartition(p.ID) {
		return 0, fmt.Errorf("topo: decompose: partition %s vanished from floor %d", p.ID, f.Level)
	}
	children := make([]*model.Partition, len(pieces))
	for i, poly := range pieces {
		children[i] = &model.Partition{
			ID:      fmt.Sprintf("%s.%d", p.ID, i+1),
			Name:    p.Name,
			Floor:   p.Floor,
			Polygon: poly,
			Kind:    p.Kind,
			Parent:  room(p),
		}
		if err := f.AddPartition(children[i]); err != nil {
			return 0, err
		}
	}
	addCutDoors(f, p.ID, cuts, children)
	return len(children) - 1, nil
}

// splitRecursive splits poly until balanced, returning the pieces and the cut
// segments introduced.
func splitRecursive(poly geom.Polygon, maxArea float64, depth int) ([]geom.Polygon, []geom.Segment) {
	if !needsSplit(poly, maxArea, depth) {
		return []geom.Polygon{poly}, nil
	}
	bb := poly.BBox()
	c := poly.Centroid()
	var a, b geom.Point
	if bb.Width() >= bb.Height() {
		// Cut vertically through the centroid.
		a, b = geom.Pt(c.X, bb.Min.Y-1), geom.Pt(c.X, bb.Max.Y+1)
	} else {
		a, b = geom.Pt(bb.Min.X-1, c.Y), geom.Pt(bb.Max.X+1, c.Y)
	}
	left, right := poly.SplitByLine(a, b)
	if len(left) < 3 || len(right) < 3 ||
		left.Area() < geom.Eps || right.Area() < geom.Eps {
		return []geom.Polygon{poly}, nil
	}
	cut := cutSegment(left, a, b)
	lp, lc := splitRecursive(left, maxArea, depth+1)
	rp, rc := splitRecursive(right, maxArea, depth+1)
	pieces := append(lp, rp...)
	cuts := append([]geom.Segment{cut}, append(lc, rc...)...)
	return pieces, cuts
}

// cutSegment returns the portion of the split line lying on the piece
// boundary: the extreme boundary vertices of the piece that lie on the line
// a→b.
func cutSegment(piece geom.Polygon, a, b geom.Point) geom.Segment {
	dir := b.Sub(a).Unit()
	var onLine []geom.Point
	for _, p := range piece {
		if absDistToLine(p, a, dir) < 1e-6 {
			onLine = append(onLine, p)
		}
	}
	if len(onLine) < 2 {
		return geom.Seg(a, b)
	}
	// Extremes along the line direction.
	minT, maxT := onLine[0], onLine[0]
	minV, maxV := onLine[0].Sub(a).Dot(dir), onLine[0].Sub(a).Dot(dir)
	for _, p := range onLine[1:] {
		t := p.Sub(a).Dot(dir)
		if t < minV {
			minV, minT = t, p
		}
		if t > maxV {
			maxV, maxT = t, p
		}
	}
	return geom.Seg(minT, maxT)
}

func absDistToLine(p, a, unitDir geom.Point) float64 {
	d := unitDir.Cross(p.Sub(a))
	if d < 0 {
		return -d
	}
	return d
}

// cutProbe is how far (m) either side of a cut addCutDoors looks for the
// two pieces the cut separates.
const cutProbe = 0.01

// addCutDoors inserts a wide pass-through virtual door at the midpoint of
// every cut, joining the children that contain a point cutProbe either side
// of it (lower ID first).
func addCutDoors(f *model.Floor, parentID string, cuts []geom.Segment, children []*model.Partition) {
	for i, cut := range cuts {
		mid := cut.Midpoint()
		dir := cut.B.Sub(cut.A).Unit()
		step := geom.Pt(-dir.Y, dir.X).Scale(cutProbe)
		a, b := childAt(children, mid.Sub(step)), childAt(children, mid.Add(step))
		if a == nil || b == nil || a == b {
			continue
		}
		if b.ID < a.ID {
			a, b = b, a
		}
		f.Doors = append(f.Doors, &model.Door{
			ID:         fmt.Sprintf("%s-cut%d", parentID, i+1),
			Name:       model.VirtualDoorName,
			Floor:      f.Level,
			Position:   mid,
			Width:      cut.Length(),
			Partitions: [2]string{a.ID, b.ID},
		})
	}
}

// childAt returns the first child containing pt, or nil.
func childAt(children []*model.Partition, pt geom.Point) *model.Partition {
	for _, c := range children {
		if c.Contains(pt) {
			return c
		}
	}
	return nil
}
