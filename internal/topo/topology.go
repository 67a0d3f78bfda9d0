package topo

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vita/internal/geom"
	"vita/internal/index"
	"vita/internal/model"
)

// Options configure topology construction: the two settings core.Config
// exposes.
type Options struct {
	// Decompose enables irregular-partition decomposition.
	Decompose bool
	// MaxArea is decomposition's size criterion (m²): larger partitions are
	// split.
	MaxArea float64
}

// DefaultOptions returns the standard construction pipeline: decomposition
// on, partitions over 120 m² split.
func DefaultOptions() Options {
	return Options{Decompose: true, MaxArea: 120}
}

// Topology wraps a building with its derived geometrical/topological
// information: door connectivity, staircase links, spatial indices, wall
// sets, and the accessibility graph used for routing (paper §4.1, §2).
//
// Build numbers the partitions once: floors ascending, each floor in its
// Partitions order. Everything derived per partition is a slice read by
// that number.
type Topology struct {
	B *model.Building

	// floors holds each floor's derived geometry, in B.Floors order.
	floors []floorIndex
	// parts are the numbered partitions; speed (walking speed, m/s),
	// partNodes (the graph nodes standing in the partition) and exits (the
	// partitions its doors lead to, in door ID order) are indexed like it.
	parts     []*model.Partition
	speed     []float64
	partNodes [][]int
	exits     [][]int

	// nodes and adj are the accessibility graph routes run on.
	nodes []node
	adj   [][]edge
}

// floorIndex is one floor's walls, partition R-tree and partition numbers.
type floorIndex struct {
	level int
	walls *geom.WallSet
	rtree *index.RTree
	ids   map[string]int // partition ID → partition number
}

// Build derives the full topology of a building: optional decomposition,
// door→partition connectivity (one ConnectDoors pass over the final
// partitions), staircase linking, semantic extraction, spatial indexing,
// the partition numbering, and the accessibility graph.
func Build(b *model.Building, opts Options) (*Topology, error) {
	if opts.Decompose {
		if _, err := Decompose(b, opts.MaxArea); err != nil {
			return nil, err
		}
	}
	if err := ConnectDoors(b); err != nil {
		return nil, err
	}
	if err := LinkStaircases(b); err != nil {
		return nil, err
	}
	model.ApplySemantics(b, model.DefaultSemanticRules())
	if err := b.Validate(); err != nil {
		return nil, err
	}

	t := &Topology{B: b, floors: make([]floorIndex, len(b.Floors))}
	for i, f := range b.Floors {
		fi := &t.floors[i]
		fi.level = f.Level
		fi.walls = f.WallSet()
		fi.ids = make(map[string]int, len(f.Partitions))
		items := make([]index.Item, 0, len(f.Partitions))
		for _, p := range f.Partitions {
			fi.ids[p.ID] = len(t.parts)
			t.parts = append(t.parts, p)
			t.speed = append(t.speed, speedOf(p.Kind))
			items = append(items, p)
		}
		fi.rtree = index.BulkLoad(items)
	}
	t.partNodes = make([][]int, len(t.parts))
	t.exits = make([][]int, len(t.parts))
	t.buildGraph()
	t.linkExits()
	return t, nil
}

// linkExits lists, per partition, the partitions its doors lead to, in
// door ID order.
func (t *Topology) linkExits() {
	for i, f := range t.B.Floors {
		ids := t.floors[i].ids
		doors := slices.Clone(f.Doors)
		slices.SortStableFunc(doors, func(x, y *model.Door) int { return strings.Compare(x.ID, y.ID) })
		for _, d := range doors {
			a, b := d.Partitions[0], d.Partitions[1]
			if a == "" || b == "" {
				continue
			}
			if d.Leads(a, b) {
				t.exits[ids[a]] = append(t.exits[ids[a]], ids[b])
			}
			if d.Leads(b, a) {
				t.exits[ids[b]] = append(t.exits[ids[b]], ids[a])
			}
		}
	}
}

// floor returns the derived geometry of the floor at the given level.
func (t *Topology) floor(level int) (*floorIndex, bool) {
	i, ok := slices.BinarySearchFunc(t.floors, level, func(fi floorIndex, l int) int { return cmp.Compare(fi.level, l) })
	if !ok {
		return nil, false
	}
	return &t.floors[i], true
}

// Partitions returns the numbered partitions: floors ascending, each floor
// in its Partitions order. The caller must not modify the slice.
func (t *Topology) Partitions() []*model.Partition { return t.parts }

// PartitionNumber returns the number of the partition with the given ID on
// the given floor.
func (t *Topology) PartitionNumber(floor int, id string) (int, bool) {
	fi, ok := t.floor(floor)
	if !ok {
		return 0, false
	}
	n, ok := fi.ids[id]
	return n, ok
}

// Exits returns the numbers of the partitions the doors of partition n
// lead to, in door ID order: a one-way door counts only from the side it
// opens from, and exterior doors not at all. The caller must not modify
// the slice.
func (t *Topology) Exits(n int) []int { return t.exits[n] }

// PartitionAt locates the partition containing pt on the given floor using
// the spatial index.
func (t *Topology) PartitionAt(floor int, pt geom.Point) (*model.Partition, bool) {
	fi, ok := t.floor(floor)
	if !ok {
		return nil, false
	}
	var best *model.Partition
	bestArea := 0.0
	var buf [8]index.Item // nested decompositions rarely stack deeper
	for _, it := range fi.rtree.SearchPoint(pt, buf[:0]) {
		p := it.(*model.Partition)
		if p.Contains(pt) {
			a := p.Polygon.Area()
			if best == nil || a < bestArea {
				best, bestArea = p, a
			}
		}
	}
	return best, best != nil
}

// resolvePartition returns the number of a location's partition: the named
// one when it exists on the location's floor, else the one containing its
// coordinate.
func (t *Topology) resolvePartition(loc model.Location) (int, error) {
	if loc.Partition != "" {
		if n, ok := t.PartitionNumber(loc.Floor, loc.Partition); ok {
			return n, nil
		}
		// The caller may hold a pre-decomposition ID; fall through to
		// coordinate resolution.
	}
	if !loc.HasPoint {
		return 0, fmt.Errorf("topo: location %s has neither a known partition nor a coordinate", loc)
	}
	p, ok := t.PartitionAt(loc.Floor, loc.Point)
	if !ok {
		return 0, fmt.Errorf("topo: location %s lies in no partition", loc)
	}
	n, _ := t.PartitionNumber(loc.Floor, p.ID)
	return n, nil
}

// GraphSize returns the number of nodes and directed edges of the
// accessibility graph (diagnostics and benchmarks).
func (t *Topology) GraphSize() (nodes, edges int) {
	nodes = len(t.nodes)
	for _, a := range t.adj {
		edges += len(a)
	}
	return
}

// Crossings counts the walls crossed by the straight path a→b on the given
// floor; it backs the RSSI obstacle-noise term.
func (t *Topology) Crossings(floor int, a, b geom.Point) int {
	fi, ok := t.floor(floor)
	if !ok {
		return 0
	}
	return fi.walls.Crossings(a, b)
}

// RandomPointIn returns a point sampled uniformly from the partition's
// polygon (rejection sampling over its bounding box). rnd must return
// uniform values in [0,1).
func RandomPointIn(p *model.Partition, rnd func() float64) geom.Point {
	bb := p.Polygon.BBox()
	for i := 0; i < 1024; i++ {
		pt := geom.Pt(
			bb.Min.X+rnd()*bb.Width(),
			bb.Min.Y+rnd()*bb.Height(),
		)
		if p.Contains(pt) {
			return pt
		}
	}
	return p.Center()
}
