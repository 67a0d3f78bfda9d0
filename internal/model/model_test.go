package model

import (
	"math"
	"testing"

	"vita/internal/geom"
)

func twoRoomFloor(t *testing.T) *Floor {
	t.Helper()
	f := NewFloor(0, 0, 3)
	a := &Partition{ID: "A", Name: "Room A", Floor: 0, Polygon: geom.Rect(0, 0, 10, 10)}
	b := &Partition{ID: "B", Name: "Room B", Floor: 0, Polygon: geom.Rect(10, 0, 20, 10)}
	if err := f.AddPartition(a); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPartition(b); err != nil {
		t.Fatal(err)
	}
	f.Doors = append(f.Doors, &Door{
		ID: "D1", Floor: 0, Position: geom.Pt(10, 5), Width: 1,
		Partitions: [2]string{"A", "B"},
	})
	return f
}

func TestFloorAddPartitionRejections(t *testing.T) {
	f := NewFloor(0, 0, 3)
	p := &Partition{ID: "A", Floor: 1, Polygon: geom.Rect(0, 0, 1, 1)}
	if err := f.AddPartition(p); err == nil {
		t.Error("wrong-floor partition accepted")
	}
	p.Floor = 0
	if err := f.AddPartition(p); err != nil {
		t.Fatal(err)
	}
	dup := &Partition{ID: "A", Floor: 0, Polygon: geom.Rect(1, 1, 2, 2)}
	if err := f.AddPartition(dup); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestPartitionAt(t *testing.T) {
	f := twoRoomFloor(t)
	p, ok := f.PartitionAt(geom.Pt(5, 5))
	if !ok || p.ID != "A" {
		t.Errorf("PartitionAt(5,5) = %v, %v", p, ok)
	}
	p, ok = f.PartitionAt(geom.Pt(15, 5))
	if !ok || p.ID != "B" {
		t.Errorf("PartitionAt(15,5) = %v, %v", p, ok)
	}
	if _, ok := f.PartitionAt(geom.Pt(50, 50)); ok {
		t.Error("point outside all partitions matched")
	}
}

func TestRemovePartition(t *testing.T) {
	f := twoRoomFloor(t)
	if !f.RemovePartition("A") {
		t.Fatal("RemovePartition returned false")
	}
	if f.RemovePartition("A") {
		t.Error("double remove returned true")
	}
	if _, ok := f.Partition("A"); ok {
		t.Error("removed partition still resolvable")
	}
	if len(f.Partitions) != 1 {
		t.Errorf("partition slice not updated: %d", len(f.Partitions))
	}
}

func TestDoorLeadsAndOther(t *testing.T) {
	d := &Door{Partitions: [2]string{"A", "B"}}
	for _, dir := range []DoorDirection{Both, AToB, BToA} {
		d.Direction = dir
		ab := d.Leads("A", "B")
		ba := d.Leads("B", "A")
		switch dir {
		case Both:
			if !ab || !ba {
				t.Error("Both should allow both directions")
			}
		case AToB:
			if !ab || ba {
				t.Error("AToB wrong")
			}
		case BToA:
			if ab || !ba {
				t.Error("BToA wrong")
			}
		}
	}
	if d.Leads("A", "C") {
		t.Error("unrelated partitions lead")
	}
	if o, ok := d.Other("A"); !ok || o != "B" {
		t.Errorf("Other(A) = %v, %v", o, ok)
	}
	if _, ok := d.Other("Z"); ok {
		t.Error("Other(Z) found")
	}
}

func TestWallSetPunchesDoors(t *testing.T) {
	f := twoRoomFloor(t)
	ws := f.WallSet()
	// A path through the door position must have line of sight.
	if ws.Crossings(geom.Pt(9, 5), geom.Pt(11, 5)) != 0 {
		t.Error("door opening blocked")
	}
	// A path through the shared wall away from the door must be blocked (the
	// wall appears twice: once per room boundary).
	if n := ws.Crossings(geom.Pt(9, 1), geom.Pt(11, 1)); n == 0 {
		t.Error("solid wall not blocking")
	}
}

func TestStaircaseEntries(t *testing.T) {
	s := &Staircase{Points: []geom.Point3{
		geom.Pt3(0, 0, 0), geom.Pt3(2, 0, 0),
		geom.Pt3(0, 0, 3.5), geom.Pt3(2, 0, 3.5),
	}}
	up := s.UpperEntry()
	lo := s.LowerEntry()
	if !up.Eq(geom.Pt(1, 0)) {
		t.Errorf("UpperEntry = %v", up)
	}
	if !lo.Eq(geom.Pt(1, 0)) {
		t.Errorf("LowerEntry = %v", lo)
	}
}

func TestBuildingValidate(t *testing.T) {
	b := NewBuilding("b", "B")
	f := twoRoomFloor(t)
	if err := b.AddFloor(f); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid building rejected: %v", err)
	}
	// Dangling door reference.
	f.Doors = append(f.Doors, &Door{ID: "DX", Floor: 0, Position: geom.Pt(5, 0),
		Partitions: [2]string{"A", "MISSING"}})
	if err := b.Validate(); err == nil {
		t.Error("dangling door reference accepted")
	}
	f.Doors = f.Doors[:len(f.Doors)-1]
	// Unresolved staircase link.
	b.Staircases = append(b.Staircases, &Staircase{
		ID: "S", Linked: true, UpperFloor: 7, UpperPartition: "Z",
		LowerFloor: 0, LowerPartition: "A",
	})
	if err := b.Validate(); err == nil {
		t.Error("unresolved staircase accepted")
	}
}

func TestBuildingAccessors(t *testing.T) {
	b := NewBuilding("b", "B")
	if err := b.AddFloor(twoRoomFloor(t)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloor(NewFloor(2, 7, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloor(NewFloor(2, 7, 3)); err == nil {
		t.Error("duplicate floor accepted")
	}
	levels := b.FloorLevels()
	if len(levels) != 2 || levels[0] != 0 || levels[1] != 2 {
		t.Errorf("FloorLevels = %v", levels)
	}
	if b.PartitionCount() != 2 || b.DoorCount() != 1 {
		t.Errorf("counts = %d, %d", b.PartitionCount(), b.DoorCount())
	}
	if _, ok := b.Partition(0, "A"); !ok {
		t.Error("Partition(0, A) missing")
	}
	if _, ok := b.Partition(9, "A"); ok {
		t.Error("Partition on missing floor found")
	}
}

func TestLocation(t *testing.T) {
	l := At("b", 1, "P", geom.Pt(3, 4))
	if !l.HasPoint || l.String() == "" {
		t.Error("At location malformed")
	}
	s := Location{Building: "b", Floor: 1, Partition: "P"}
	if s.HasPoint {
		t.Error("symbolic location has a point")
	}
	o := At("b", 1, "Q", geom.Pt(0, 0))
	d, ok := l.Dist(o)
	if !ok || math.Abs(d-5) > 1e-9 {
		t.Errorf("Dist = %v, %v", d, ok)
	}
	if _, ok := l.Dist(At("b", 2, "P", geom.Pt(0, 0))); ok {
		t.Error("cross-floor Dist succeeded")
	}
	if _, ok := l.Dist(s); ok {
		t.Error("Dist to symbolic location succeeded")
	}
}

func TestSemanticsRules(t *testing.T) {
	b := NewBuilding("b", "B")
	f := NewFloor(0, 0, 3)
	canteen := &Partition{ID: "C", Name: "Staff Canteen", Floor: 0, Polygon: geom.Rect(0, 0, 5, 5)}
	hall := &Partition{ID: "H", Name: "Main Corridor", Floor: 0, Polygon: geom.Rect(5, 0, 30, 4)}
	big := &Partition{ID: "G", Name: "Lobby", Floor: 0, Polygon: geom.Rect(0, 5, 20, 20)}
	for _, p := range []*Partition{canteen, hall, big} {
		if err := f.AddPartition(p); err != nil {
			t.Fatal(err)
		}
	}
	// Give the lobby three doors so the public-area rule fires.
	for i, pos := range []geom.Point{geom.Pt(5, 10), geom.Pt(10, 5), geom.Pt(0, 10)} {
		f.Doors = append(f.Doors, &Door{
			ID: string(rune('a' + i)), Floor: 0, Position: pos,
			Partitions: [2]string{"G", ""},
		})
	}
	if err := b.AddFloor(f); err != nil {
		t.Fatal(err)
	}
	n := ApplySemantics(b, DefaultSemanticRules())
	if n < 3 {
		t.Errorf("ApplySemantics classified %d, want >= 3", n)
	}
	if canteen.Kind != KindCanteen {
		t.Errorf("canteen kind = %v", canteen.Kind)
	}
	if hall.Kind != KindHallway {
		t.Errorf("hallway kind = %v", hall.Kind)
	}
	if big.Kind != KindPublicArea {
		t.Errorf("lobby kind = %v", big.Kind)
	}
}

func TestKindAndDirectionStrings(t *testing.T) {
	for _, k := range []PartitionKind{KindRoom, KindHallway, KindStaircase, KindPublicArea, KindCanteen, PartitionKind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	for _, d := range []DoorDirection{Both, AToB, BToA, DoorDirection(99)} {
		if d.String() == "" {
			t.Error("empty direction string")
		}
	}
}
