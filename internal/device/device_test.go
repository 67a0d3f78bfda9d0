package device

import (
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
)

func testBuilding(t *testing.T) *model.Building {
	t.Helper()
	b := model.NewBuilding("tb", "Test Building")
	f := model.NewFloor(0, 0, 3)
	parts := []*model.Partition{
		{ID: "R1", Floor: 0, Polygon: geom.Rect(0, 0, 12, 10)},
		{ID: "R2", Floor: 0, Polygon: geom.Rect(12, 0, 24, 10)},
		{ID: "HALL", Floor: 0, Polygon: geom.Rect(0, 10, 24, 14), Kind: model.KindHallway},
	}
	for _, p := range parts {
		if err := f.AddPartition(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Doors = append(f.Doors,
		&model.Door{ID: "D1", Floor: 0, Position: geom.Pt(6, 10), Width: 1,
			Partitions: [2]string{"R1", "HALL"}},
		&model.Door{ID: "D2", Floor: 0, Position: geom.Pt(18, 10), Width: 1,
			Partitions: [2]string{"R2", "HALL"}},
	)
	if err := b.AddFloor(f); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseType(t *testing.T) {
	for in, want := range map[string]Type{"wifi": WiFi, "bt": Bluetooth, "rfid": RFID} {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("laser"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestParseDeploymentModel(t *testing.T) {
	if m, err := ParseDeploymentModel("coverage"); err != nil || m != Coverage {
		t.Error("coverage parse failed")
	}
	if m, err := ParseDeploymentModel("check-point"); err != nil || m != CheckPoint {
		t.Error("check-point parse failed")
	}
	if _, err := ParseDeploymentModel("random"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDefaultPropertiesOrdering(t *testing.T) {
	w, bt, rf := DefaultProperties(WiFi), DefaultProperties(Bluetooth), DefaultProperties(RFID)
	if !(w.DetectionRange > bt.DetectionRange && bt.DetectionRange > rf.DetectionRange) {
		t.Errorf("range ordering broken: wifi=%v bt=%v rfid=%v",
			w.DetectionRange, bt.DetectionRange, rf.DetectionRange)
	}
}

func TestCoverageDeployment(t *testing.T) {
	b := testBuilding(t)
	r := rng.New(5)
	devs, err := Deploy(b, 0, DeploySpec{Model: Coverage, Type: WiFi, Count: 6}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 6 {
		t.Fatalf("deployed %d, want 6", len(devs))
	}
	f, _ := b.Floor(0)
	// Devices must sit inside some partition and near a wall.
	for _, d := range devs {
		if _, ok := f.PartitionAt(d.Position); !ok {
			t.Errorf("device %s outside all partitions at %v", d.ID, d.Position)
		}
	}
	if md := MeanWallDistance(f, devs); md > 1.0 {
		t.Errorf("coverage devices too far from walls: mean %v", md)
	}
	if sep := MinPairwiseDistance(devs); sep < 2 {
		t.Errorf("coverage devices too close together: min separation %v", sep)
	}
	// IDs unique and typed.
	seen := map[string]bool{}
	for _, d := range devs {
		if seen[d.ID] {
			t.Errorf("duplicate ID %s", d.ID)
		}
		seen[d.ID] = true
		if !strings.Contains(d.ID, "wifi") {
			t.Errorf("ID %s missing type", d.ID)
		}
	}
}

func TestCoverageRequiresCount(t *testing.T) {
	b := testBuilding(t)
	if _, err := Deploy(b, 0, DeploySpec{Model: Coverage, Type: WiFi}, rng.New(1)); err == nil {
		t.Error("coverage without count accepted")
	}
}

func TestCheckpointDeployment(t *testing.T) {
	b := testBuilding(t)
	devs, err := Deploy(b, 0, DeploySpec{Model: CheckPoint, Type: RFID}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Two doors, plus hotspots for partitions >= 80 m² (R1=120, R2=120,
	// HALL=96), largest first.
	if len(devs) != 5 {
		t.Fatalf("deployed %d, want 5 (2 doors + 3 hotspots)", len(devs))
	}
	if !devs[4].Position.Eq(geom.Pt(12, 12)) {
		t.Errorf("last hotspot at %v, want the hallway center (12,12)", devs[4].Position)
	}
	// First devices sit exactly at the door positions.
	if !devs[0].Position.Eq(geom.Pt(6, 10)) || !devs[1].Position.Eq(geom.Pt(18, 10)) {
		t.Errorf("door devices misplaced: %v, %v", devs[0].Position, devs[1].Position)
	}
	// Cap respected.
	capped, err := Deploy(b, 0, DeploySpec{Model: CheckPoint, Type: RFID, Count: 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 {
		t.Errorf("cap ignored: %d", len(capped))
	}
}

func TestDeployUnknownFloor(t *testing.T) {
	b := testBuilding(t)
	if _, err := Deploy(b, 9, DeploySpec{Model: Coverage, Type: WiFi, Count: 2}, rng.New(1)); err == nil {
		t.Error("unknown floor accepted")
	}
}

func TestDeviceInRangeAndBounds(t *testing.T) {
	d := &Device{ID: "x", Position: geom.Pt(10, 10), Props: Properties{DetectionRange: 5}}
	if !d.InRange(geom.Pt(13, 13)) {
		t.Error("in-range point rejected")
	}
	if d.InRange(geom.Pt(20, 20)) {
		t.Error("out-of-range point accepted")
	}
	// The detection disc's bound is inclusive.
	if !d.InRange(geom.Pt(15, 10)) || d.InRange(geom.Pt(15.01, 10)) {
		t.Error("detection range bound not inclusive")
	}
}

func TestPropsOverride(t *testing.T) {
	b := testBuilding(t)
	props := Properties{DetectionRange: 2.5, SampleInterval: 7, CalibrationA: -70, PathLossExponent: 3}
	devs, err := Deploy(b, 0, DeploySpec{Model: Coverage, Type: WiFi, Count: 2, Props: &props}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if d.Props != props {
			t.Errorf("props not applied: %+v", d.Props)
		}
	}
}

func TestDeterministicDeployment(t *testing.T) {
	b := testBuilding(t)
	a, err := Deploy(b, 0, DeploySpec{Model: Coverage, Type: WiFi, Count: 5}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Deploy(b, 0, DeploySpec{Model: Coverage, Type: WiFi, Count: 5}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Position.Eq(c[i].Position) {
			t.Fatalf("deployment not deterministic at %d: %v vs %v", i, a[i].Position, c[i].Position)
		}
	}
}
