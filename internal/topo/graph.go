package topo

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
	// Length is the hop's length in meters: a staircase's 3D length, 0 for
	// the start.
	Length float64
	// TravelTime is a stair hop's traversal time, the staircase's
	// TravelTime; 0 for every other hop.
	TravelTime float64
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
// (door or staircase end) inside a partition. Each door and each
// staircase end is its own portal.
type node struct {
	part  int // partition number
	point geom.Point
}

// edge is one directed hop.
type edge struct {
	to   int
	dist float64 // meters
	time float64 // stair travel time, 0 off stairs; walking time is derived from dist
	// stair marks staircase traversals: their walking time is the fixed time
	// only, not dist/speed.
	stair bool
	via   string
}

// buildGraph constructs the static, directed door/stair accessibility
// graph, honoring door directionality, and fills t.partNodes.
func (t *Topology) buildGraph() {
	addNode := func(part int, pt geom.Point) int {
		id := len(t.nodes)
		t.nodes = append(t.nodes, node{part: part, point: pt})
		t.adj = append(t.adj, nil)
		t.partNodes[part] = append(t.partNodes[part], id)
		return id
	}

	// Door nodes and crossing edges.
	for i, f := range t.B.Floors {
		ids := t.floors[i].ids
		for _, d := range f.Doors {
			a, b := d.Partitions[0], d.Partitions[1]
			na, nb := -1, -1
			if a != "" {
				na = addNode(ids[a], d.Position)
			}
			if b != "" {
				nb = addNode(ids[b], d.Position)
			}
			if na < 0 || nb < 0 {
				continue // an exterior door is a portal of its one partition
			}
			if d.Leads(a, b) {
				t.adj[na] = append(t.adj[na], edge{to: nb, via: d.ID})
			}
			if d.Leads(b, a) {
				t.adj[nb] = append(t.adj[nb], edge{to: na, via: d.ID})
			}
		}
	}

	// Staircase nodes and traversal edges (both directions).
	for _, s := range t.B.Staircases {
		if !s.Linked {
			continue
		}
		upPart, _ := t.PartitionNumber(s.UpperFloor, s.UpperPartition)
		loPart, _ := t.PartitionNumber(s.LowerFloor, s.LowerPartition)
		up := addNode(upPart, s.UpperEntry())
		lo := addNode(loPart, s.LowerEntry())
		length := stairLength(t.B, s)
		t.adj[up] = append(t.adj[up], edge{to: lo, dist: length, time: s.TravelTime, stair: true, via: s.ID})
		t.adj[lo] = append(t.adj[lo], edge{to: up, dist: length, time: s.TravelTime, stair: true, via: s.ID})
	}

	// Within-partition edges: all portals sharing a partition are mutually
	// reachable by straight-line walking (partitions are convex after
	// decomposition).
	for _, ids := range t.partNodes {
		for _, i := range ids {
			for _, j := range ids {
				if i != j {
					t.adj[i] = append(t.adj[i], edge{to: j, dist: t.nodes[i].point.Dist(t.nodes[j].point)})
				}
			}
		}
	}
}

// stairLength approximates the 3D walking length of a staircase from its
// entries and the floor gap.
func stairLength(b *model.Building, s *model.Staircase) float64 {
	horiz := s.UpperEntry().Dist(s.LowerEntry())
	var dz float64
	if fu, ok := b.Floor(s.UpperFloor); ok {
		if fl, ok2 := b.Floor(s.LowerFloor); ok2 {
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

// baseSpeed is the base walking speed (m/s). speedOf scales it per
// partition kind, realizing minimum-walking-time routing where open
// hallways are faster than crowded public areas and canteens; other kinds
// walk at baseSpeed.
const baseSpeed = 1.4

func speedOf(kind model.PartitionKind) float64 {
	// factor is a variable so the product is rounded in float64, as the
	// pinned routes expect: baseSpeed*1.25 as a constant is exactly 1.75.
	factor := 1.0
	switch kind {
	case model.KindHallway:
		factor = 1.25
	case model.KindPublicArea:
		factor = 0.8
	case model.KindCanteen:
		factor = 0.7
	}
	return baseSpeed * factor
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node int
	cost float64
}

// frontier is Dijkstra's min-heap on cost. push and pop sift exactly as
// container/heap's Push and Pop do, so equal costs pop in the same order.
type frontier []pqItem

func (h *frontier) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].cost < s[i].cost) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *frontier) pop() pqItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].cost < s[j].cost {
			j = j2
		}
		if !(s[j].cost < s[i].cost) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// label is Dijkstra's per-node state: the best cost so far, the distance
// and time along that path, and the hop that reached the node. A label whose
// stamp is not its scratch's current one belongs to an earlier search.
type label struct {
	cost, dist, time float64
	prev             int
	done             bool
	stamp            uint32
	hop              edge
}

// routeScratch is the working memory of one Route call, reused across calls
// through scratchPool. Advancing stamp unsets every label at once, so a
// search touches only the nodes it reaches.
type routeScratch struct {
	labels []label
	stamp  uint32
	heap   frontier
}

var scratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// reset readies s for a search over n nodes.
func (s *routeScratch) reset(n int) {
	if cap(s.labels) < n {
		s.labels, s.stamp = make([]label, n), 0
	}
	s.labels = s.labels[:n]
	if s.stamp++; s.stamp == 0 { // wrapped: a stale stamp could match again
		clear(s.labels[:cap(s.labels)])
		s.stamp = 1
	}
	s.heap = s.heap[:0]
}

// at returns node i's label, unset (infinite cost, no predecessor, not done)
// if this search has not reached the node yet.
func (s *routeScratch) at(i int) *label {
	l := &s.labels[i]
	if l.stamp != s.stamp {
		*l = label{cost: math.MaxFloat64, prev: -1, stamp: s.stamp}
	}
	return l
}

// Route computes a route between two locations under the given metric: it
// runs Dijkstra over the static graph plus two injected query nodes.
func (t *Topology) Route(from, to model.Location, metric Metric) (*Route, error) {
	fromPart, err := t.resolvePartition(from)
	if err != nil {
		return nil, err
	}
	toPart, err := t.resolvePartition(to)
	if err != nil {
		return nil, err
	}
	start := Waypoint{Floor: from.Floor, Point: from.Point, Partition: t.parts[fromPart].ID}
	end := Waypoint{Floor: to.Floor, Point: to.Point, Partition: t.parts[toPart].ID}

	// Trivial same-partition route.
	if fromPart == toPart {
		d := from.Point.Dist(to.Point)
		end.Length = d
		return &Route{Waypoints: []Waypoint{start, end}, Distance: d, Time: d / t.speed[fromPart]}, nil
	}

	n := len(t.nodes)
	src, dst := n, n+1
	sc := scratchPool.Get().(*routeScratch)
	defer scratchPool.Put(sc)
	sc.reset(n + 2)
	sc.at(src).cost = 0
	sc.heap.push(pqItem{node: src})
	// relax offers the hop e out of u, walked at speed.
	relax := func(u int, e edge, speed float64) {
		tm := e.dist / speed
		if e.stair {
			tm = e.time
		}
		c := e.dist
		if metric == MinTime {
			c = tm
		}
		lu, lv := sc.at(u), sc.at(e.to)
		if lu.cost+c < lv.cost {
			lv.cost = lu.cost + c
			lv.dist = lu.dist + e.dist
			lv.time = lu.time + tm
			lv.prev = u
			lv.hop = e
			sc.heap.push(pqItem{node: e.to, cost: lv.cost})
		}
	}
	for len(sc.heap) > 0 {
		u := sc.heap.pop().node
		lu := sc.at(u)
		if lu.done {
			continue
		}
		lu.done = true
		if u == dst {
			break
		}
		if u == src {
			for _, v := range t.partNodes[fromPart] {
				relax(src, edge{to: v, dist: from.Point.Dist(t.nodes[v].point)}, t.speed[fromPart])
			}
			continue
		}
		nd := t.nodes[u]
		for _, e := range t.adj[u] {
			relax(u, e, t.speed[nd.part])
		}
		if nd.part == toPart {
			relax(u, edge{to: dst, dist: nd.point.Dist(to.Point)}, t.speed[nd.part])
		}
	}
	last := sc.at(dst)
	if last.cost == math.MaxFloat64 {
		return nil, fmt.Errorf("topo: no route from %s to %s", from, to)
	}

	// Reconstruct waypoints, back from dst.
	var wps []Waypoint
	for cur := dst; cur != src; cur = sc.at(cur).prev {
		wp := end
		if cur != dst {
			nd := t.nodes[cur]
			p := t.parts[nd.part]
			wp = Waypoint{Floor: p.Floor, Point: nd.point, Partition: p.ID}
		}
		hop := sc.at(cur).hop
		wp.Via, wp.Stair, wp.Length, wp.TravelTime = hop.via, hop.stair, hop.dist, hop.time
		wps = append(wps, wp)
	}
	wps = append(wps, start)
	slices.Reverse(wps)
	return &Route{Waypoints: wps, Distance: last.dist, Time: last.time}, nil
}
