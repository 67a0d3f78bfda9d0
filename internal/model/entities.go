// Package model defines Vita's host indoor environment: buildings, floors,
// partitions, doors with directionality, staircases and obstacles, plus the
// Location type shared by all generated data records (paper §2, §4.1, §4.2).
package model

import (
	"fmt"

	"vita/internal/geom"
)

// PartitionKind classifies a partition for semantics and movement rules.
type PartitionKind int

// Partition kinds recognized by the semantic extractor.
const (
	KindRoom PartitionKind = iota
	KindHallway
	KindStaircase
	KindPublicArea
	KindCanteen
)

// String implements fmt.Stringer.
func (k PartitionKind) String() string {
	switch k {
	case KindRoom:
		return "room"
	case KindHallway:
		return "hallway"
	case KindStaircase:
		return "staircase"
	case KindPublicArea:
		return "public-area"
	case KindCanteen:
		return "canteen"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Partition is an indoor space unit (a room, a hallway, or a decomposed
// sub-partition of an irregular space).
type Partition struct {
	ID      string
	Name    string
	Floor   int
	Polygon geom.Polygon
	Kind    PartitionKind
	// Parent is the original partition ID when this partition resulted from
	// irregular-shape decomposition; empty otherwise.
	Parent string
}

// Room returns the ID of the room p belongs to: its Parent when p is a
// piece of a decomposed room, its own ID otherwise.
func (p *Partition) Room() string {
	if p.Parent != "" {
		return p.Parent
	}
	return p.ID
}

// Bounds implements index.Item.
func (p *Partition) Bounds() geom.BBox { return p.Polygon.BBox() }

// Contains reports whether the floor-plane point lies in the partition.
func (p *Partition) Contains(pt geom.Point) bool { return p.Polygon.Contains(pt) }

// Center returns the partition centroid.
func (p *Partition) Center() geom.Point { return p.Polygon.Centroid() }

// DoorDirection encodes door directionality (paper §2: the Indoor Environment
// Controller lets users configure door directionality, e.g. one-way security
// doors).
type DoorDirection int

// Door directionality values.
const (
	// Both allows movement in both directions.
	Both DoorDirection = iota
	// AToB allows movement only from Partitions[0] to Partitions[1].
	AToB
	// BToA allows movement only from Partitions[1] to Partitions[0].
	BToA
)

// String implements fmt.Stringer.
func (d DoorDirection) String() string {
	switch d {
	case Both:
		return "both"
	case AToB:
		return "a->b"
	case BToA:
		return "b->a"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Door connects exactly two partitions on one floor (doors to the building
// exterior use the empty partition ID "" on one side).
type Door struct {
	ID         string
	Name       string
	Floor      int
	Position   geom.Point
	Width      float64
	Partitions [2]string
	Direction  DoorDirection
}

// VirtualDoorName names the pass-through doors decomposition inserts along
// its cuts: openings between pieces of one room, not doors in a wall.
const VirtualDoorName = "virtual pass-through"

// Virtual reports whether the door is a decomposition cut's pass-through.
func (d *Door) Virtual() bool { return d.Name == VirtualDoorName }

// Bounds implements index.Item.
func (d *Door) Bounds() geom.BBox {
	half := d.Width / 2
	if half <= 0 {
		half = 0.5
	}
	return geom.BBox{Min: d.Position, Max: d.Position}.Expand(half)
}

// Leads reports whether the door permits movement from partition `from` to
// partition `to`.
func (d *Door) Leads(from, to string) bool {
	switch {
	case d.Partitions[0] == from && d.Partitions[1] == to:
		return d.Direction != BToA
	case d.Partitions[1] == from && d.Partitions[0] == to:
		return d.Direction != AToB
	default:
		return false
	}
}

// Staircase is modeled as IFC models it: a bag of 3D boundary points whose
// floor connectivity is not given and must be resolved by the two-step
// algorithm in internal/topo (paper §4.1).
type Staircase struct {
	ID     string
	Name   string
	Points []geom.Point3

	// Resolved connectivity (filled by topo.LinkStaircases).
	UpperFloor     int
	LowerFloor     int
	UpperPartition string
	LowerPartition string
	Linked         bool

	// TravelTime is the seconds needed to traverse the staircase; used by
	// minimum-walking-time routing.
	TravelTime float64
}

// UpperEntry returns the floor-plane entry point on the upper floor: the
// centroid of the staircase's highest vertices.
func (s *Staircase) UpperEntry() geom.Point { return s.entryAt(true) }

// LowerEntry returns the floor-plane entry point on the lower floor.
func (s *Staircase) LowerEntry() geom.Point { return s.entryAt(false) }

func (s *Staircase) entryAt(upper bool) geom.Point {
	if len(s.Points) == 0 {
		return geom.Point{}
	}
	extreme := s.Points[0].Z
	for _, p := range s.Points {
		if (upper && p.Z > extreme) || (!upper && p.Z < extreme) {
			extreme = p.Z
		}
	}
	var c geom.Point
	n := 0
	for _, p := range s.Points {
		if absf(p.Z-extreme) < 0.5 {
			c = c.Add(p.XY())
			n++
		}
	}
	if n == 0 {
		return geom.Point{}
	}
	return c.Scale(1 / float64(n))
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Obstacle is a user-deployed obstruction (paper §2: "deploy obstacles to
// further customize the host indoor environment"). Obstacles block both
// movement and line of sight.
type Obstacle struct {
	ID      string
	Floor   int
	Polygon geom.Polygon
}

// Bounds implements index.Item.
func (o *Obstacle) Bounds() geom.BBox { return o.Polygon.BBox() }
