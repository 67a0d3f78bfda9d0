package topo

import (
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
)

// officeTopo parses the synthetic office through the full IFC path and builds
// its topology.
func officeTopo(t testing.TB) *Topology {
	t.Helper()
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		t.Fatalf("parse office IFC: %v", err)
	}
	b, rep, err := ifc.Extract(f)
	if err != nil {
		t.Fatalf("extract office: %v", err)
	}
	if errs := rep.Errors(); len(errs) != 0 {
		t.Fatalf("unexpected DBI errors: %v", errs)
	}
	topo, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatalf("build topology: %v", err)
	}
	return topo
}

func TestConnectDoorsOffice(t *testing.T) {
	topo := officeTopo(t)
	f := topo.B.Floors[0]
	for _, d := range f.Doors {
		if d.Partitions[0] == "" {
			t.Errorf("door %s has no primary partition", d.ID)
		}
	}
	// A south-room door must connect its room (or a decomposed child) to the
	// hallway (or a hallway child).
	var found bool
	for _, d := range f.Doors {
		if d.ID == "F0-DS1" {
			found = true
			ok := false
			for _, pid := range d.Partitions {
				p, exists := f.Partition(pid)
				if exists && (p.Parent == "F0-HALL" || p.ID == "F0-HALL") {
					ok = true
				}
			}
			if !ok {
				t.Errorf("door F0-DS1 connects %v, expected one side in the hallway", d.Partitions)
			}
		}
	}
	if !found {
		t.Fatalf("door F0-DS1 missing")
	}
}

func TestStaircaseLinking(t *testing.T) {
	topo := officeTopo(t)
	if len(topo.B.Staircases) != 1 {
		t.Fatalf("want 1 staircase, got %d", len(topo.B.Staircases))
	}
	s := topo.B.Staircases[0]
	if !s.Linked {
		t.Fatalf("staircase not linked")
	}
	if s.LowerFloor != 0 || s.UpperFloor != 1 {
		t.Errorf("staircase links floors %d-%d, want 0-1", s.LowerFloor, s.UpperFloor)
	}
	lo, ok := topo.B.Partition(s.LowerFloor, s.LowerPartition)
	if !ok {
		t.Fatalf("lower partition %s missing", s.LowerPartition)
	}
	// The stair sits in the hallway.
	if lo.ID != "F0-HALL" && lo.Parent != "F0-HALL" {
		t.Errorf("stair lower partition = %s (parent %s), want hallway", lo.ID, lo.Parent)
	}
}

func TestCrossFloorRoute(t *testing.T) {
	topo := officeTopo(t)
	from := model.At("office", 0, "", geom.Pt(4, 4))   // inside F0-S0 (canteen)
	to := model.At("office", 1, "", geom.Pt(36, 18.5)) // inside F1-N4
	r, err := topo.Route(from, to, MinDistance)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if r.Distance <= 0 || r.Time <= 0 {
		t.Fatalf("degenerate route: %+v", r)
	}
	// Route must traverse the staircase.
	sawStair := false
	for _, wp := range r.Waypoints {
		if wp.Stair {
			sawStair = true
		}
	}
	if !sawStair {
		t.Errorf("cross-floor route does not use the staircase: %+v", r.Waypoints)
	}
	// Endpoint floors must match.
	if r.Waypoints[0].Floor != 0 || r.Waypoints[len(r.Waypoints)-1].Floor != 1 {
		t.Errorf("route endpoints on wrong floors")
	}
}

func TestSameFloorRouteDistanceSanity(t *testing.T) {
	topo := officeTopo(t)
	from := model.At("office", 0, "", geom.Pt(4, 4))
	to := model.At("office", 0, "", geom.Pt(36, 4))
	r, err := topo.Route(from, to, MinDistance)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	euclid := from.Point.Dist(to.Point)
	if r.Distance < euclid-geom.Eps {
		t.Errorf("indoor distance %.2f below Euclidean %.2f", r.Distance, euclid)
	}
	if r.Distance > 4*euclid {
		t.Errorf("indoor distance %.2f implausibly above Euclidean %.2f", r.Distance, euclid)
	}
}

func TestMinTimePrefersFasterHallways(t *testing.T) {
	topo := officeTopo(t)
	from := model.At("office", 0, "", geom.Pt(4, 4))
	to := model.At("office", 0, "", geom.Pt(36, 4))
	rd, err := topo.Route(from, to, MinDistance)
	if err != nil {
		t.Fatalf("min-dist route: %v", err)
	}
	rt, err := topo.Route(from, to, MinTime)
	if err != nil {
		t.Fatalf("min-time route: %v", err)
	}
	if rt.Time > rd.Time+geom.Eps {
		t.Errorf("min-time route slower (%.2fs) than min-distance route (%.2fs)", rt.Time, rd.Time)
	}
	if rd.Distance > rt.Distance+geom.Eps {
		t.Errorf("min-distance route longer (%.2fm) than min-time route (%.2fm)", rd.Distance, rt.Distance)
	}
}

func TestDecompositionBalances(t *testing.T) {
	topo := officeTopo(t)
	opts := DefaultOptions()
	for _, level := range topo.B.FloorLevels() {
		for _, p := range topo.B.Floors[level].Partitions {
			if opts.MaxArea > 0 && p.Polygon.Area() > opts.MaxArea+geom.Eps {
				t.Errorf("partition %s area %.1f exceeds max %.1f", p.ID, p.Polygon.Area(), opts.MaxArea)
			}
		}
	}
	decomposed := false
	for _, level := range topo.B.FloorLevels() {
		for _, p := range topo.B.Floors[level].Partitions {
			decomposed = decomposed || strings.Contains(p.ID, ".")
		}
	}
	if !decomposed {
		t.Errorf("expected the long hallway to be decomposed")
	}
}

func TestDoorDirectionalityBlocks(t *testing.T) {
	// Build a two-room world with a one-way door.
	b := model.NewBuilding("tiny", "tiny")
	f := model.NewFloor(0, 0, 3)
	pa := &model.Partition{ID: "A", Floor: 0, Polygon: geom.Rect(0, 0, 5, 5)}
	pb := &model.Partition{ID: "B", Floor: 0, Polygon: geom.Rect(5, 0, 10, 5)}
	if err := f.AddPartition(pa); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPartition(pb); err != nil {
		t.Fatal(err)
	}
	f.Doors = append(f.Doors, &model.Door{
		ID: "D", Floor: 0, Position: geom.Pt(5, 2.5), Width: 1,
		Direction: model.AToB,
	})
	if err := b.AddFloor(f); err != nil {
		t.Fatal(err)
	}
	topo, err := Build(b, Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	d := f.Doors[0]
	// ConnectDoors ordered partitions lexicographically: A then B.
	if d.Partitions[0] != "A" || d.Partitions[1] != "B" {
		t.Fatalf("door partitions = %v", d.Partitions)
	}
	fromA := model.At("tiny", 0, "", geom.Pt(2, 2))
	fromB := model.At("tiny", 0, "", geom.Pt(8, 2))
	if _, err := topo.Route(fromA, fromB, MinDistance); err != nil {
		t.Errorf("A->B should be allowed: %v", err)
	}
	if _, err := topo.Route(fromB, fromA, MinDistance); err == nil {
		t.Errorf("B->A should be blocked by door directionality")
	}
}

func TestWallCrossings(t *testing.T) {
	topo := officeTopo(t)
	// Two points in adjacent south rooms on floor 0: the separating wall
	// should be crossed.
	n := topo.Crossings(0, geom.Pt(4, 4), geom.Pt(12, 4))
	if n == 0 {
		t.Errorf("expected wall crossings between adjacent rooms, got 0")
	}
	// Two points within one room: no crossings.
	if n := topo.Crossings(0, geom.Pt(2, 2), geom.Pt(3, 3)); n != 0 {
		t.Errorf("expected 0 crossings within a room, got %d", n)
	}
}
