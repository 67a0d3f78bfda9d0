// Package topo derives Vita's geometrical/topological information from the
// host indoor environment (paper §4.1): door→partition connectivity,
// irregular-partition decomposition, the two-step staircase-linking
// algorithm, and indoor routing by minimum walking distance or minimum
// walking time (§3.1).
package topo

import (
	"fmt"
	"sort"

	"vita/internal/model"
)

// doorSnapTol is how close a door must be to a partition boundary to be
// considered incident to it.
const doorSnapTol = 0.3

// ConnectDoors homes every wall door of the building on two partitions: the
// one whose boundary is nearest, ties broken by room and then by ID, and the
// nearest one of a different room, or the exterior ("") when no other room
// is in reach. Pieces of one decomposed room are never separated by a wall,
// and a door's sides keep their order through decomposition, so a one-way
// direction set on the DBI's rooms survives it. Virtual doors keep the
// pieces addCutDoors homed them on. It returns an error for a door that
// touches no partition boundary.
func ConnectDoors(b *model.Building) error {
	for _, f := range b.Floors {
		for _, d := range f.Doors {
			if d.Virtual() {
				continue
			}
			if err := connectDoor(f, d); err != nil {
				return err
			}
		}
	}
	return nil
}

func connectDoor(f *model.Floor, d *model.Door) error {
	type cand struct {
		p    *model.Partition
		dist float64
	}
	var cands []cand
	for _, p := range f.Partitions {
		if dist := p.Polygon.DistToBoundary(d.Position); dist <= doorSnapTol {
			cands = append(cands, cand{p: p, dist: dist})
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("topo: door %s on floor %d touches no partition boundary", d.ID, f.Level)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		if ri, rj := cands[i].p.Room(), cands[j].p.Room(); ri != rj {
			return ri < rj
		}
		return cands[i].p.ID < cands[j].p.ID
	})
	first := cands[0].p
	d.Partitions = [2]string{first.ID, ""} // exterior unless another room is in reach
	for _, c := range cands[1:] {
		if c.p.Room() != first.Room() {
			d.Partitions[1] = c.p.ID
			break
		}
	}
	return nil
}
