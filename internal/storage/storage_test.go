package storage

import (
	"bytes"
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

func sample(obj int, floor int, x, y, t float64) trajectory.Sample {
	return trajectory.Sample{
		ObjID: obj,
		Loc:   model.At("b", floor, "P", geom.Pt(x, y)),
		T:     t,
	}
}

func TestTrajectoryCSVRoundTrip(t *testing.T) {
	in := []trajectory.Sample{
		sample(1, 0, 1.5, 2.25, 0),
		sample(1, 1, 3, 4, 1),
		sample(2, 0, 0, 0, 0.5),
	}
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost rows: %d", len(out))
	}
	for i := range in {
		if in[i].ObjID != out[i].ObjID || in[i].Loc.Floor != out[i].Loc.Floor ||
			in[i].Loc.Point.Dist(out[i].Loc.Point) > 1e-4 {
			t.Errorf("row %d mismatch: %+v vs %+v", i, in[i], out[i])
		}
	}
}

func TestRSSICSVRoundTrip(t *testing.T) {
	in := []rssi.Measurement{
		{ObjID: 1, DeviceID: "a", RSSI: -42.5, T: 0},
		{ObjID: 2, DeviceID: "b", RSSI: -61.125, T: 3.5},
	}
	var buf bytes.Buffer
	if err := writeCSV(NewRSSICSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[rssi.Measurement](RSSI, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].DeviceID != "a" || out[1].RSSI != -61.125 {
		t.Errorf("round trip: %+v", out)
	}
}

func TestEstimateCSVRoundTrip(t *testing.T) {
	in := []positioning.Estimate{
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(1, 2)), T: 3},
	}
	var buf bytes.Buffer
	if err := WriteEstimateCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Loc.Partition != "P" {
		t.Errorf("round trip: %+v", out)
	}
}

func TestProximityCSVRoundTrip(t *testing.T) {
	in := []positioning.ProximityRecord{
		{ObjID: 1, DeviceID: "d", TS: 0.5, TE: 9.25},
	}
	var buf bytes.Buffer
	if err := WriteProximityCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadProximityCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].TE != 9.25 {
		t.Errorf("round trip: %+v", out)
	}
}

func TestCSVReadErrors(t *testing.T) {
	if _, err := readCSV[trajectory.Sample](Trajectory, strings.NewReader("o_id,building,floor,partition,x,y,t\nbad,b,0,P,0,0,0\n")); err == nil {
		t.Error("bad o_id accepted")
	}
	if _, err := readCSV[rssi.Measurement](RSSI, strings.NewReader("o_id,d_id,rssi,t\n1,a,not-a-number,0\n")); err == nil {
		t.Error("bad rssi accepted")
	}
	if _, err := ReadProximityCSV(strings.NewReader("o_id,d_id,ts,te\n1,a,x,0\n")); err == nil {
		t.Error("bad ts accepted")
	}
	// Wrong column count.
	if _, err := readCSV[trajectory.Sample](Trajectory, strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong field count accepted")
	}
}
