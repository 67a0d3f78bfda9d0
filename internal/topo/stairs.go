package topo

import (
	"fmt"
	"math"

	"vita/internal/geom"
	"vita/internal/model"
)

// zCluster is how far (meters) a vertex may be from the extreme elevation and
// still count as an "upper (lower) vertex" of the staircase boundary.
const zCluster = 0.5

// LinkStaircases resolves the floor and partition connectivity of every
// staircase with the two-step algorithm of paper §4.1:
//
//  1. Identify the upper (lower) vertices on the staircase boundary by
//     geometry computation, and select as the upper (lower) connected floor
//     the floor having the maximum intersection with those vertices.
//  2. Within the connected floor, return the partition containing the
//     upper (lower) vertices as the connected partition.
//
// It returns an error when any staircase cannot be linked.
func LinkStaircases(b *model.Building) error {
	for _, s := range b.Staircases {
		if err := linkStaircase(b, s); err != nil {
			return err
		}
	}
	return nil
}

func linkStaircase(b *model.Building, s *model.Staircase) error {
	if len(s.Points) == 0 {
		return fmt.Errorf("topo: staircase %s has no boundary points", s.ID)
	}
	upper := extremeVertices(s.Points, true)
	lower := extremeVertices(s.Points, false)

	upFloor, err := floorByMaxIntersection(b, upper)
	if err != nil {
		return fmt.Errorf("topo: staircase %s upper link: %w", s.ID, err)
	}
	loFloor, err := floorByMaxIntersection(b, lower)
	if err != nil {
		return fmt.Errorf("topo: staircase %s lower link: %w", s.ID, err)
	}
	if upFloor.Level == loFloor.Level {
		return fmt.Errorf("topo: staircase %s links floor %d to itself", s.ID, upFloor.Level)
	}
	upPart, err := containingPartition(upFloor, upper)
	if err != nil {
		return fmt.Errorf("topo: staircase %s upper partition: %w", s.ID, err)
	}
	loPart, err := containingPartition(loFloor, lower)
	if err != nil {
		return fmt.Errorf("topo: staircase %s lower partition: %w", s.ID, err)
	}
	s.UpperFloor = upFloor.Level
	s.LowerFloor = loFloor.Level
	s.UpperPartition = upPart.ID
	s.LowerPartition = loPart.ID
	s.Linked = true
	return nil
}

// extremeVertices returns the boundary vertices within zCluster of the
// maximum (upper=true) or minimum elevation.
func extremeVertices(pts []geom.Point3, upper bool) []geom.Point3 {
	extreme := pts[0].Z
	for _, p := range pts {
		if (upper && p.Z > extreme) || (!upper && p.Z < extreme) {
			extreme = p.Z
		}
	}
	var out []geom.Point3
	for _, p := range pts {
		if math.Abs(p.Z-extreme) <= zCluster {
			out = append(out, p)
		}
	}
	return out
}

// floorByMaxIntersection selects the floor whose vertical extent
// [elevation, elevation+height) contains the most of the given vertices —
// "the floor having the maximum intersection with the upper (lower)
// vertices" (§4.1). Elevation ties break toward the lower level.
func floorByMaxIntersection(b *model.Building, verts []geom.Point3) (*model.Floor, error) {
	var best *model.Floor
	bestCount := 0
	for _, f := range b.Floors {
		count := 0
		for _, v := range verts {
			if v.Z >= f.Elevation-zCluster && v.Z < f.Elevation+f.Height-zCluster {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = f, count
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no floor intersects the vertex elevations")
	}
	return best, nil
}

// containingPartition returns the partition on f containing the centroid of
// the given vertices, falling back to the partition nearest to it.
func containingPartition(f *model.Floor, verts []geom.Point3) (*model.Partition, error) {
	var c geom.Point
	for _, v := range verts {
		c = c.Add(v.XY())
	}
	c = c.Scale(1 / float64(len(verts)))
	if p, ok := f.PartitionAt(c); ok {
		return p, nil
	}
	// Fall back to the nearest partition; real DBI data often places the
	// stair footprint just outside a space boundary.
	var best *model.Partition
	bestDist := math.Inf(1)
	for _, p := range f.Partitions {
		if d := p.Polygon.DistToBoundary(c); d < bestDist {
			best, bestDist = p, d
		}
	}
	if best == nil || bestDist > 2.0 {
		return nil, fmt.Errorf("no partition contains or borders the stair footprint at %s", c)
	}
	return best, nil
}
