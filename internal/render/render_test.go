package render

import (
	"strings"
	"testing"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/trajectory"
)

func TestFloorRenderContainsMarkers(t *testing.T) {
	b := ifc.Office(ifc.DefaultOfficeSpec())
	f, _ := b.Floor(0)
	devs := []*device.Device{
		{ID: "d", Floor: 0, Position: geom.Pt(20, 10), Props: device.DefaultProperties(device.WiFi)},
	}
	snap := []trajectory.Sample{
		{ObjID: 1, Loc: model.At("office", 0, "F0-S0", geom.Pt(4, 4)), T: 0},
	}
	out := Floor(f, devs, snap, Options{Width: 80})
	if !strings.Contains(out, "#") {
		t.Error("no walls rendered")
	}
	if !strings.Contains(out, "+") {
		t.Error("no doors rendered")
	}
	if !strings.Contains(out, "D") {
		t.Error("no device rendered")
	}
	if !strings.Contains(out, "o") {
		t.Error("no object rendered")
	}
	if !strings.Contains(out, "Floor 0") {
		t.Error("no header rendered")
	}
}

func TestBuildingRendersAllFloors(t *testing.T) {
	b := ifc.Office(ifc.DefaultOfficeSpec())
	out := Building(b, nil, nil, Options{Width: 60})
	if !strings.Contains(out, "Floor 0") || !strings.Contains(out, "Floor 1") {
		t.Error("missing floors in building render")
	}
}

func TestEmptyFloor(t *testing.T) {
	f := model.NewFloor(0, 0, 3)
	if out := Floor(f, nil, nil, Options{}); !strings.Contains(out, "empty") {
		t.Errorf("empty floor render = %q", out)
	}
}

func TestWrongFloorMarkersSkipped(t *testing.T) {
	b := ifc.Office(ifc.DefaultOfficeSpec())
	f, _ := b.Floor(0)
	devs := []*device.Device{
		{ID: "d", Floor: 1, Position: geom.Pt(20, 10), Props: device.DefaultProperties(device.WiFi)},
	}
	snap := []trajectory.Sample{
		{ObjID: 1, Loc: model.At("office", 1, "F1-S0", geom.Pt(4, 4)), T: 0},
	}
	out := Floor(f, devs, snap, Options{Width: 80})
	if strings.Contains(out, "D") || strings.Contains(out, "o") {
		// "Floor" contains 'o'; check the canvas only.
		lines := strings.SplitN(out, "\n", 2)
		if len(lines) == 2 && (strings.Contains(lines[1], "D") || strings.Contains(lines[1], "o")) {
			t.Error("wrong-floor markers rendered")
		}
	}
}
