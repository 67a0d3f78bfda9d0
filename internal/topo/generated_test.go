package topo

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
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
// and every cut door joins two pieces of one room. It also pins every route
// it plans (routeDigest) against testdata/routes.golden; under -short only
// the six extreme buildings run.
func TestGeneratedBuildings(t *testing.T) {
	perKind := 15
	if testing.Short() {
		perKind = 0
	}
	golden := readRouteGolden(t)
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
				got := routeDigest(t, tp)
				if want, ok := golden[name]; !ok {
					t.Errorf("no pinned route digest; testdata/routes.golden needs the line %q", name+" "+got)
				} else if got != want {
					t.Errorf("route digest %s, want %s", got, want)
				}
			})
		}
	}
}

// checkDoorHomes asserts that every partition is one side of some door, that
// wall doors join two rooms (or a room and the exterior) and that cut doors
// join two pieces of one room.
func checkDoorHomes(t *testing.T, b *model.Building) {
	t.Helper()
	for _, f := range b.Floors {
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
				t.Errorf("partition %s on floor %d is no side of any door", p.ID, f.Level)
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
	fwd := make([][]int, len(tp.nodes))
	rev := make([][]int, len(tp.nodes))
	for u, edges := range tp.adj {
		for _, e := range edges {
			fwd[u] = append(fwd[u], e.to)
			rev[e.to] = append(rev[e.to], u)
		}
	}
	anchor := tp.parts[0]
	for _, dir := range []struct {
		name string
		adj  [][]int
	}{{"from", fwd}, {"to", rev}} {
		seen := make([]bool, len(tp.nodes))
		stack := append([]int(nil), tp.partNodes[0]...)
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
		for n, p := range tp.parts {
			reached := n == 0
			for _, u := range tp.partNodes[n] {
				reached = reached || seen[u]
			}
			if !reached {
				cut = append(cut, p.ID)
			}
		}
		if len(cut) > 0 {
			t.Errorf("no route %s anchor %s for %d partitions: %v", dir.name, anchor.ID, len(cut), cut)
		}
	}
}

// routeGolden is the file of pinned route digests: one line per
// TestGeneratedBuildings subtest, its name and its routeDigest.
const routeGolden = "testdata/routes.golden"

func readRouteGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(routeGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", routeGolden, sc.Text())
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// routeDigest plans a route from the anchor (the first partition of the
// lowest floor) to every partition's centre by minimum distance, and from
// every partition's centre to the anchor by minimum time, and hashes each
// waypoint's floor, partition, via and stair flag, the bits of its point,
// and the bits of each route's Distance and Time.
func routeDigest(t *testing.T, tp *Topology) string {
	t.Helper()
	h := sha256.New()
	parts := tp.Partitions()
	at := func(p *model.Partition) model.Location { return model.At(tp.B.ID, p.Floor, p.ID, p.Center()) }
	anchor := at(parts[0])
	for _, p := range parts {
		for _, trip := range []struct {
			from, to model.Location
			metric   Metric
		}{{anchor, at(p), MinDistance}, {at(p), anchor, MinTime}} {
			r, err := tp.Route(trip.from, trip.to, trip.metric)
			if err != nil {
				t.Errorf("%s route %s → %s: %v", trip.metric, trip.from, trip.to, err)
				continue
			}
			for _, w := range r.Waypoints {
				fmt.Fprintf(h, "%d %s %s %t %x %x\n", w.Floor, w.Partition, w.Via, w.Stair, w.Point.X, w.Point.Y)
			}
			fmt.Fprintf(h, "= %x %x\n", r.Distance, r.Time)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
