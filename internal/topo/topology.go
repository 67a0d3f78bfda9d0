package topo

import (
	"fmt"

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
type Topology struct {
	B *model.Building

	graph   *graph
	walls   map[int]*geom.WallSet
	partIdx map[int]*index.RTree
}

// Build derives the full topology of a building: optional decomposition,
// door→partition connectivity (one ConnectDoors pass over the final
// partitions), staircase linking, semantic extraction, spatial indexing,
// and the accessibility graph.
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

	t := &Topology{
		B:       b,
		walls:   make(map[int]*geom.WallSet),
		partIdx: make(map[int]*index.RTree),
	}
	for _, level := range b.FloorLevels() {
		f := b.Floors[level]
		t.walls[level] = f.WallSet()
		items := make([]index.Item, 0, len(f.Partitions))
		for _, p := range f.Partitions {
			items = append(items, p)
		}
		t.partIdx[level] = index.BulkLoad(items)
	}
	t.graph = buildGraph(b)
	return t, nil
}

// PartitionAt locates the partition containing pt on the given floor using
// the spatial index.
func (t *Topology) PartitionAt(floor int, pt geom.Point) (*model.Partition, bool) {
	idx, ok := t.partIdx[floor]
	if !ok {
		return nil, false
	}
	var best *model.Partition
	bestArea := 0.0
	var buf [8]index.Item // nested decompositions rarely stack deeper
	for _, it := range idx.SearchPoint(pt, buf[:0]) {
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

// resolvePartition fills in the partition of a location from its coordinate
// when absent, and validates it when present.
func (t *Topology) resolvePartition(loc model.Location) (string, error) {
	if loc.Partition != "" {
		if _, ok := t.B.Partition(loc.Floor, loc.Partition); ok {
			return loc.Partition, nil
		}
		// The caller may hold a pre-decomposition ID; fall through to
		// coordinate resolution.
	}
	if !loc.HasPoint {
		return "", fmt.Errorf("topo: location %s has neither a known partition nor a coordinate", loc)
	}
	p, ok := t.PartitionAt(loc.Floor, loc.Point)
	if !ok {
		return "", fmt.Errorf("topo: location %s lies in no partition", loc)
	}
	return p.ID, nil
}

// GraphSize returns the number of nodes and directed edges of the
// accessibility graph (diagnostics and benchmarks).
func (t *Topology) GraphSize() (nodes, edges int) {
	nodes = len(t.graph.nodes)
	for _, a := range t.graph.adj {
		edges += len(a)
	}
	return
}

// Crossings counts the walls crossed by the straight path a→b on the given
// floor; it backs the RSSI obstacle-noise term.
func (t *Topology) Crossings(floor int, a, b geom.Point) int {
	ws, ok := t.walls[floor]
	if !ok {
		return 0
	}
	return ws.Crossings(a, b)
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
