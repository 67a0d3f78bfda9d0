package topo

import (
	"fmt"
	"testing"

	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/rng"
)

// generatedBuilding is one synthetic building of TestGeneratedBuildings.
type generatedBuilding struct {
	name  string
	build func() *model.Building
}

// generatedBuildings returns the smallest and largest office, mall and
// clinic of the ranges below, plus perKind seeded random ones of each kind:
// offices of 1–12 rooms per side on 1–4 floors, malls of 1–40 shops per side
// on 1–6 floors, clinics of 1–12 consultation rooms.
func generatedBuildings(perKind int) []generatedBuilding {
	office := func(rooms, floors int) generatedBuilding {
		spec := ifc.DefaultOfficeSpec()
		spec.RoomsPerSide, spec.Floors = rooms, floors
		return generatedBuilding{fmt.Sprintf("office-%dx%d", rooms, floors), func() *model.Building { return ifc.Office(spec) }}
	}
	mall := func(shops, floors int) generatedBuilding {
		spec := ifc.DefaultMallSpec()
		spec.ShopsPerSide, spec.Floors = shops, floors
		return generatedBuilding{fmt.Sprintf("mall-%dx%d", shops, floors), func() *model.Building { return ifc.Mall(spec) }}
	}
	clinic := func(rooms int) generatedBuilding {
		spec := ifc.DefaultClinicSpec()
		spec.ConsultRooms = rooms
		return generatedBuilding{fmt.Sprintf("clinic-%d", rooms), func() *model.Building { return ifc.Clinic(spec) }}
	}
	out := []generatedBuilding{
		office(1, 1), office(12, 4),
		mall(1, 1), mall(40, 6),
		clinic(1), clinic(12),
	}
	r := rng.New(39)
	for i := 0; i < perKind; i++ {
		out = append(out,
			office(1+r.Intn(12), 1+r.Intn(4)),
			mall(1+r.Intn(40), 1+r.Intn(6)),
			clinic(1+r.Intn(12)))
	}
	return out
}

// TestGeneratedBuildings builds generated offices, malls and clinics with
// decomposition off and at several MaxArea, and checks the door graph the
// walkers route over: every partition has a door, every partition routes to
// and from one anchor partition, no wall door joins two pieces of one room,
// and every cut door joins two pieces of one room.
func TestGeneratedBuildings(t *testing.T) {
	perKind := 15
	if testing.Short() {
		perKind = 0
	}
	options := []Options{{}}
	for _, maxArea := range []float64{40, 60, 120, 200, 400} {
		options = append(options, Options{Decompose: true, MaxArea: maxArea})
	}
	for _, gb := range generatedBuildings(perKind) {
		for _, opts := range options {
			name := gb.name + "/whole"
			if opts.Decompose {
				name = fmt.Sprintf("%s/max%g", gb.name, opts.MaxArea)
			}
			t.Run(name, func(t *testing.T) {
				tp, err := Build(gb.build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				checkDoorHomes(t, tp.B)
				checkRoutesThroughAnchor(t, tp)
			})
		}
	}
}

// checkDoorHomes asserts that every partition is one side of some door, that
// wall doors join two rooms (or a room and the exterior) and that cut doors
// join two pieces of one room.
func checkDoorHomes(t *testing.T, b *model.Building) {
	t.Helper()
	for _, level := range b.FloorLevels() {
		f := b.Floors[level]
		sides := make(map[string]bool)
		for _, d := range f.Doors {
			sides[d.Partitions[0]], sides[d.Partitions[1]] = true, true
			var rooms [2]string
			for i, id := range d.Partitions {
				if id == "" {
					continue
				}
				p, ok := f.Partition(id)
				if !ok {
					t.Fatalf("door %s joins unknown partition %q", d.ID, id)
				}
				rooms[i] = p.Room()
			}
			switch {
			case d.Virtual() && (d.Partitions[1] == "" || d.Partitions[0] == d.Partitions[1] || rooms[0] != rooms[1]):
				t.Errorf("cut door %s joins %v, not two pieces of one room", d.ID, d.Partitions)
			case !d.Virtual() && rooms[0] == rooms[1]:
				t.Errorf("wall door %s joins %v, two pieces of room %s", d.ID, d.Partitions, rooms[0])
			}
		}
		for _, p := range f.Partitions {
			if !sides[p.ID] {
				t.Errorf("partition %s on floor %d is no side of any door", p.ID, level)
			}
		}
	}
}

// checkRoutesThroughAnchor asserts that every partition routes to and from
// the first partition of the lowest floor, so every pair routes through it.
// Route finds a path exactly when a portal of the destination partition is
// reachable in the accessibility graph from a portal of the origin, so one
// search each way from the anchor's portals covers every route.
func checkRoutesThroughAnchor(t *testing.T, tp *Topology) {
	t.Helper()
	g := tp.graph
	levels := tp.B.FloorLevels()
	anchor := tp.B.Floors[levels[0]].Partitions[0]
	fwd := make([][]int, len(g.nodes))
	rev := make([][]int, len(g.nodes))
	for u, edges := range g.adj {
		for _, e := range edges {
			fwd[u] = append(fwd[u], e.to)
			rev[e.to] = append(rev[e.to], u)
		}
	}
	for _, dir := range []struct {
		name string
		adj  [][]int
	}{{"from", fwd}, {"to", rev}} {
		seen := make([]bool, len(g.nodes))
		stack := append([]int(nil), g.byPartition[partKey{anchor.Floor, anchor.ID}]...)
		for _, u := range stack {
			seen[u] = true
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range dir.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		var cut []string
		for _, level := range levels {
			for _, p := range tp.B.Floors[level].Partitions {
				reached := p == anchor
				for _, u := range g.byPartition[partKey{level, p.ID}] {
					reached = reached || seen[u]
				}
				if !reached {
					cut = append(cut, p.ID)
				}
			}
		}
		if len(cut) > 0 {
			t.Errorf("no route %s anchor %s for %d partitions: %v", dir.name, anchor.ID, len(cut), cut)
		}
	}
}
