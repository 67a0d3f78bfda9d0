package model

import (
	"cmp"
	"fmt"
	"slices"
)

// Building is the host indoor environment: a set of floors connected by
// staircases.
type Building struct {
	ID   string
	Name string
	// Floors are sorted by level. A level is a floor's name, not its
	// position: levels may be negative or have gaps, so look a floor up
	// with Floor, never by indexing Floors with a level.
	Floors     []*Floor
	Staircases []*Staircase
}

// NewBuilding returns an empty building.
func NewBuilding(id, name string) *Building {
	return &Building{ID: id, Name: name}
}

// AddFloor inserts a floor in level order, rejecting duplicate levels.
func (b *Building) AddFloor(f *Floor) error {
	i, dup := b.search(f.Level)
	if dup {
		return fmt.Errorf("model: duplicate floor level %d in building %s", f.Level, b.ID)
	}
	b.Floors = slices.Insert(b.Floors, i, f)
	return nil
}

// Floor returns the floor at the given level.
func (b *Building) Floor(level int) (*Floor, bool) {
	if i, ok := b.search(level); ok {
		return b.Floors[i], true
	}
	return nil, false
}

// search returns the position of level in Floors, or where it would be
// inserted, and whether it is there.
func (b *Building) search(level int) (int, bool) {
	return slices.BinarySearchFunc(b.Floors, level, func(f *Floor, l int) int { return cmp.Compare(f.Level, l) })
}

// Partition resolves a partition by floor and ID.
func (b *Building) Partition(floor int, id string) (*Partition, bool) {
	f, ok := b.Floor(floor)
	if !ok {
		return nil, false
	}
	return f.Partition(id)
}

// PartitionCount returns the total number of partitions across floors.
func (b *Building) PartitionCount() int {
	n := 0
	for _, f := range b.Floors {
		n += len(f.Partitions)
	}
	return n
}

// DoorCount returns the total number of doors across floors.
func (b *Building) DoorCount() int {
	n := 0
	for _, f := range b.Floors {
		n += len(f.Doors)
	}
	return n
}

// Validate checks structural invariants of the environment: every door
// references existing partitions on its floor, partitions have valid
// polygons, and linked staircases reference existing floors/partitions.
func (b *Building) Validate() error {
	for _, f := range b.Floors {
		for _, p := range f.Partitions {
			if err := p.Polygon.Validate(); err != nil {
				return fmt.Errorf("model: building %s floor %d partition %s: %w", b.ID, f.Level, p.ID, err)
			}
		}
		for _, d := range f.Doors {
			for _, pid := range d.Partitions {
				if pid == "" {
					continue // exterior door side
				}
				if _, ok := f.Partition(pid); !ok {
					return fmt.Errorf("model: building %s floor %d door %s references unknown partition %s",
						b.ID, f.Level, d.ID, pid)
				}
			}
		}
	}
	for _, s := range b.Staircases {
		if !s.Linked {
			continue
		}
		if _, ok := b.Partition(s.UpperFloor, s.UpperPartition); !ok {
			return fmt.Errorf("model: staircase %s upper link %d/%s unresolved", s.ID, s.UpperFloor, s.UpperPartition)
		}
		if _, ok := b.Partition(s.LowerFloor, s.LowerPartition); !ok {
			return fmt.Errorf("model: staircase %s lower link %d/%s unresolved", s.ID, s.LowerFloor, s.LowerPartition)
		}
	}
	return nil
}
