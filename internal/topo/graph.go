package topo

import (
	"container/heap"
	"fmt"
	"math"

	"vita/internal/geom"
	"vita/internal/model"
)

// Metric selects the routing objective (paper §3.1: "a path determined by a
// particular routing schema, e.g., minimum indoor walking distance, minimum
// walking time").
type Metric int

// Routing metrics.
const (
	MinDistance Metric = iota
	MinTime
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m == MinTime {
		return "min-time"
	}
	return "min-distance"
}

// Waypoint is one stop of a computed route.
type Waypoint struct {
	Floor     int
	Point     geom.Point
	Partition string
	// Via names the door or staircase crossed to reach this waypoint; empty
	// for the start and for plain in-partition movement.
	Via string
	// Stair is true when the hop onto this waypoint traversed a staircase.
	Stair bool
}

// Route is a computed indoor path.
type Route struct {
	Waypoints []Waypoint
	// Distance is the total walking distance in meters (staircases
	// contribute their 3D length).
	Distance float64
	// Time is the total walking time in seconds under the speed model used
	// for the query.
	Time float64
}

// node is one vertex of the accessibility graph: standing at a portal
// (door or staircase end) inside a specific partition.
type node struct {
	portal    string // door or staircase ID
	partition string
	floor     int
	point     geom.Point
}

// edge is one directed hop.
type edge struct {
	to   int
	dist float64 // meters
	time float64 // extra fixed seconds (stair travel time); walking time is derived from dist
	// stair marks staircase traversals: their walking time is the fixed time
	// only, not dist/speed.
	stair bool
	via   string
}

// graph is the static accessibility graph of a building.
type graph struct {
	nodes []node
	adj   [][]edge
	// byPartition indexes node IDs by (floor, partition).
	byPartition map[partKey][]int
}

type partKey struct {
	floor     int
	partition string
}

// buildGraph constructs the directed door/stair accessibility graph,
// honoring door directionality.
func buildGraph(b *model.Building) *graph {
	g := &graph{byPartition: make(map[partKey][]int)}
	nodeID := make(map[string]int) // portalID+"/"+partition → node index

	addNode := func(portal, partition string, floor int, pt geom.Point) int {
		key := portal + "/" + partition
		if id, ok := nodeID[key]; ok {
			return id
		}
		id := len(g.nodes)
		g.nodes = append(g.nodes, node{portal: portal, partition: partition, floor: floor, point: pt})
		g.adj = append(g.adj, nil)
		nodeID[key] = id
		g.byPartition[partKey{floor, partition}] = append(g.byPartition[partKey{floor, partition}], id)
		return id
	}

	// Door nodes and crossing edges.
	for _, level := range b.FloorLevels() {
		f := b.Floors[level]
		for _, d := range f.Doors {
			a, bSide := d.Partitions[0], d.Partitions[1]
			var na, nb = -1, -1
			if a != "" {
				na = addNode(d.ID, a, level, d.Position)
			}
			if bSide != "" {
				nb = addNode(d.ID, bSide, level, d.Position)
			}
			if na >= 0 && nb >= 0 {
				if d.Leads(a, bSide) {
					g.adj[na] = append(g.adj[na], edge{to: nb, via: d.ID})
				}
				if d.Leads(bSide, a) {
					g.adj[nb] = append(g.adj[nb], edge{to: na, via: d.ID})
				}
			}
		}
	}

	// Staircase nodes and traversal edges (both directions).
	for _, s := range b.Staircases {
		if !s.Linked {
			continue
		}
		up := addNode(s.ID, s.UpperPartition, s.UpperFloor, s.UpperEntry())
		lo := addNode(s.ID, s.LowerPartition, s.LowerFloor, s.LowerEntry())
		length := stairLength(b, s)
		g.adj[up] = append(g.adj[up], edge{to: lo, dist: length, time: s.TravelTime, stair: true, via: s.ID})
		g.adj[lo] = append(g.adj[lo], edge{to: up, dist: length, time: s.TravelTime, stair: true, via: s.ID})
	}

	// Within-partition edges: all portals sharing a partition are mutually
	// reachable by straight-line walking (partitions are convex after
	// decomposition).
	for _, ids := range g.byPartition {
		for i := 0; i < len(ids); i++ {
			for j := 0; j < len(ids); j++ {
				if i == j {
					continue
				}
				a, bn := g.nodes[ids[i]], g.nodes[ids[j]]
				g.adj[ids[i]] = append(g.adj[ids[i]], edge{to: ids[j], dist: a.point.Dist(bn.point)})
			}
		}
	}
	return g
}

// stairLength approximates the 3D walking length of a staircase from its
// entries and the floor gap.
func stairLength(b *model.Building, s *model.Staircase) float64 {
	horiz := s.UpperEntry().Dist(s.LowerEntry())
	var dz float64
	if fu, ok := b.Floors[s.UpperFloor]; ok {
		if fl, ok2 := b.Floors[s.LowerFloor]; ok2 {
			dz = math.Abs(fu.Elevation - fl.Elevation)
		}
	}
	if dz == 0 {
		dz = 3
	}
	// Walking a stair is longer than the straight slope; 1.4 approximates
	// tread-by-tread travel.
	return math.Hypot(horiz, dz) * 1.4
}

// baseSpeed is the base walking speed (m/s). speedFactor scales it per
// partition kind, realizing minimum-walking-time routing where open hallways
// are faster than crowded public areas and canteens; other kinds walk at
// baseSpeed.
const baseSpeed = 1.4

var speedFactor = map[model.PartitionKind]float64{
	model.KindHallway:    1.25,
	model.KindPublicArea: 0.8,
	model.KindCanteen:    0.7,
}

// speedIn returns the effective speed inside the given partition.
func (t *Topology) speedIn(floor int, partition string) float64 {
	p, ok := t.B.Partition(floor, partition)
	if !ok {
		return baseSpeed
	}
	if f, ok := speedFactor[p.Kind]; ok {
		return baseSpeed * f
	}
	return baseSpeed
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node int
	cost float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Route computes a route between two locations under the given metric: it
// runs Dijkstra over the static graph plus two injected query nodes.
func (t *Topology) Route(from, to model.Location, metric Metric) (*Route, error) {
	g := t.graph
	fromPart, err := t.resolvePartition(from)
	if err != nil {
		return nil, err
	}
	toPart, err := t.resolvePartition(to)
	if err != nil {
		return nil, err
	}

	// Trivial same-partition route.
	if from.Floor == to.Floor && fromPart == toPart {
		d := from.Point.Dist(to.Point)
		sp := t.speedIn(from.Floor, fromPart)
		return &Route{
			Waypoints: []Waypoint{
				{Floor: from.Floor, Point: from.Point, Partition: fromPart},
				{Floor: to.Floor, Point: to.Point, Partition: toPart},
			},
			Distance: d,
			Time:     d / sp,
		}, nil
	}

	n := len(g.nodes)
	src, dst := n, n+1
	total := n + 2

	costOf := func(e edge, fromFloor int, fromPartition string) (cost, dist, tm float64) {
		walkSpeed := t.speedIn(fromFloor, fromPartition)
		dist = e.dist
		if e.stair {
			tm = e.time
		} else {
			tm = e.dist / walkSpeed
		}
		if metric == MinTime {
			return tm, dist, tm
		}
		return dist, dist, tm
	}

	// neighbors returns the edges of any node including the injected ones.
	neighbors := func(id int) []edge {
		switch id {
		case src:
			var out []edge
			for _, nid := range g.byPartition[partKey{from.Floor, fromPart}] {
				out = append(out, edge{to: nid, dist: from.Point.Dist(g.nodes[nid].point)})
			}
			return out
		case dst:
			return nil
		default:
			edges := g.adj[id]
			nd := g.nodes[id]
			if nd.floor == to.Floor && nd.partition == toPart {
				edges = append(append([]edge(nil), edges...),
					edge{to: dst, dist: nd.point.Dist(to.Point)})
			}
			return edges
		}
	}
	floorOf := func(id int) (int, string) {
		switch id {
		case src:
			return from.Floor, fromPart
		case dst:
			return to.Floor, toPart
		default:
			return g.nodes[id].floor, g.nodes[id].partition
		}
	}

	const inf = math.MaxFloat64
	costs := make([]float64, total)
	dists := make([]float64, total)
	times := make([]float64, total)
	prev := make([]int, total)
	prevEdge := make([]edge, total)
	for i := range costs {
		costs[i] = inf
		prev[i] = -1
	}
	costs[src] = 0
	h := &pq{{node: src}}
	visited := make([]bool, total)
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		u := it.node
		if visited[u] {
			continue
		}
		visited[u] = true
		if u == dst {
			break
		}
		uFloor, uPart := floorOf(u)
		for _, e := range neighbors(u) {
			c, d, tmm := costOf(e, uFloor, uPart)
			if costs[u]+c < costs[e.to] {
				costs[e.to] = costs[u] + c
				dists[e.to] = dists[u] + d
				times[e.to] = times[u] + tmm
				prev[e.to] = u
				prevEdge[e.to] = e
				heap.Push(h, pqItem{node: e.to, cost: costs[e.to]})
			}
		}
	}
	if costs[dst] == inf {
		return nil, fmt.Errorf("topo: no route from %s to %s", from, to)
	}

	// Reconstruct waypoints.
	var rev []Waypoint
	cur := dst
	for cur != -1 {
		var wp Waypoint
		switch cur {
		case src:
			wp = Waypoint{Floor: from.Floor, Point: from.Point, Partition: fromPart}
		case dst:
			wp = Waypoint{Floor: to.Floor, Point: to.Point, Partition: toPart}
		default:
			nd := g.nodes[cur]
			wp = Waypoint{Floor: nd.floor, Point: nd.point, Partition: nd.partition}
		}
		if cur != src && prev[cur] != -1 {
			wp.Via = prevEdge[cur].via
			wp.Stair = prevEdge[cur].stair
		}
		rev = append(rev, wp)
		cur = prev[cur]
	}
	wps := make([]Waypoint, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		wps = append(wps, rev[i])
	}
	return &Route{Waypoints: wps, Distance: dists[dst], Time: times[dst]}, nil
}
