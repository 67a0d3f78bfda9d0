package model

import (
	"fmt"

	"vita/internal/geom"
)

// Location identifies where something is, in the paper's composite format:
// buildingID + floorID plus either a partition ID, a coordinate point, or
// both (paper §4.2).
type Location struct {
	Building  string
	Floor     int
	Partition string
	Point     geom.Point
	// HasPoint distinguishes a symbolic (partition-only) location from a
	// coordinate one; proximity output is symbolic, trilateration output is
	// coordinate.
	HasPoint bool
}

// At returns a coordinate location.
func At(building string, floor int, partition string, pt geom.Point) Location {
	return Location{Building: building, Floor: floor, Partition: partition, Point: pt, HasPoint: true}
}

// String implements fmt.Stringer.
func (l Location) String() string {
	if l.HasPoint {
		return fmt.Sprintf("%s/F%d/%s@%s", l.Building, l.Floor, l.Partition, l.Point)
	}
	return fmt.Sprintf("%s/F%d/%s", l.Building, l.Floor, l.Partition)
}

// SameFloor reports whether the two locations are in the same building and
// floor.
func (l Location) SameFloor(o Location) bool {
	return l.Building == o.Building && l.Floor == o.Floor
}

// Dist returns the Euclidean distance between two coordinate locations on the
// same floor, and false when either lacks a coordinate or floors differ (the
// caller should then use the indoor walking distance from internal/topo).
func (l Location) Dist(o Location) (float64, bool) {
	if !l.HasPoint || !o.HasPoint || !l.SameFloor(o) {
		return 0, false
	}
	return l.Point.Dist(o.Point), true
}
