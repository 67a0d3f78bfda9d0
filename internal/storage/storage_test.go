package storage

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"vita/internal/device"
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

func TestTrajectoryStoreBasics(t *testing.T) {
	s := NewTrajectoryStore()
	s.Append(sample(2, 0, 1, 1, 10))
	s.Append(sample(1, 0, 0, 0, 0))
	s.Append(sample(1, 0, 5, 0, 5))
	s.Append(sample(1, 1, 9, 9, 9))
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Objects(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Objects = %v", got)
	}
	series := s.Series(1)
	if len(series) != 3 || series[0].T != 0 || series[2].T != 9 {
		t.Fatalf("Series = %+v", series)
	}
	if got := s.TimeRange(1, 4, 9); len(got) != 2 {
		t.Fatalf("TimeRange = %d", len(got))
	}
	all := s.All()
	if len(all) != 4 || all[0].ObjID != 1 {
		t.Fatalf("All = %+v", all)
	}
	n := 0
	s.Scan(func(trajectory.Sample) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Scan early stop broken: %d", n)
	}
}

func TestTrajectoryStoreSnapshotAndWindow(t *testing.T) {
	s := NewTrajectoryStore()
	s.Append(sample(1, 0, 0, 0, 0))
	s.Append(sample(1, 0, 10, 0, 10))
	s.Append(sample(2, 0, 5, 5, 3))
	snap := s.SnapshotAt(5)
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d", len(snap))
	}
	for _, sm := range snap {
		if sm.T > 5 {
			t.Errorf("snapshot sample after cutoff: %v", sm.T)
		}
	}
	win := s.WindowQuery(0, geom.BBox{Min: geom.Pt(4, 4), Max: geom.Pt(6, 6)}, 0, 10)
	if len(win) != 1 || win[0].ObjID != 2 {
		t.Fatalf("window = %+v", win)
	}
	if got := s.WindowQuery(1, geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 0, 10); len(got) != 0 {
		t.Error("wrong-floor window matched")
	}
}

func TestTrajectoryStoreConcurrentAppend(t *testing.T) {
	s := NewTrajectoryStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Append(sample(g, 0, float64(i), 0, float64(i)))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("concurrent Len = %d", s.Len())
	}
}

func TestRSSIStore(t *testing.T) {
	s := NewRSSIStore()
	s.Append(rssi.Measurement{ObjID: 2, DeviceID: "b", RSSI: -50, T: 1})
	s.Append(rssi.Measurement{ObjID: 1, DeviceID: "a", RSSI: -40, T: 2})
	s.Append(rssi.Measurement{ObjID: 1, DeviceID: "b", RSSI: -45, T: 1})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.All()
	if all[0].ObjID != 1 || all[0].T != 1 {
		t.Errorf("All ordering: %+v", all[0])
	}
	if all[1].DeviceID != "a" || all[2].ObjID != 2 {
		t.Errorf("All ordering: %+v", all)
	}
}

func TestDeviceStore(t *testing.T) {
	props := device.Properties{DetectionRange: 5}
	devs := []*device.Device{
		{ID: "a", Floor: 0, Position: geom.Pt(0, 0), Props: props},
		{ID: "b", Floor: 0, Position: geom.Pt(10, 0), Props: props},
		{ID: "c", Floor: 1, Position: geom.Pt(0, 0), Props: props},
	}
	s, err := NewDeviceStore(devs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Get("b"); !ok {
		t.Error("Get(b) missing")
	}
	in := s.InRangeOf(0, geom.Pt(3, 0))
	if len(in) != 1 || in[0].ID != "a" {
		t.Errorf("InRangeOf = %+v", in)
	}
	near := s.Nearest(0, geom.Pt(9, 0), 2)
	if len(near) != 2 || near[0].ID != "b" {
		t.Errorf("Nearest = %+v", near)
	}
	if got := s.InRangeOf(5, geom.Pt(0, 0)); got != nil {
		t.Error("unknown floor returned devices")
	}
	if _, err := NewDeviceStore([]*device.Device{{ID: "x"}, {ID: "x"}}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestEstimateStore(t *testing.T) {
	s := NewEstimateStore()
	s.Append(
		positioning.Estimate{ObjID: 2, T: 1},
		positioning.Estimate{ObjID: 1, T: 2},
		positioning.Estimate{ObjID: 1, T: 1},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.All()
	if all[0].ObjID != 1 || all[0].T != 1 || all[2].ObjID != 2 {
		t.Errorf("ordering: %+v", all)
	}
}

func TestProximityStore(t *testing.T) {
	s := NewProximityStore()
	s.Append(
		positioning.ProximityRecord{ObjID: 1, DeviceID: "d1", TS: 0, TE: 5},
		positioning.ProximityRecord{ObjID: 2, DeviceID: "d1", TS: 10, TE: 20},
		positioning.ProximityRecord{ObjID: 1, DeviceID: "d2", TS: 7, TE: 8},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.All()
	if all[0].DeviceID != "d1" || all[1].DeviceID != "d2" || all[2].ObjID != 2 {
		t.Errorf("ordering: %+v", all)
	}
}

func TestTrajectoryCSVRoundTrip(t *testing.T) {
	in := []trajectory.Sample{
		sample(1, 0, 1.5, 2.25, 0),
		sample(1, 1, 3, 4, 1),
		sample(2, 0, 0, 0, 0.5),
	}
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrajectoryCSV(&buf)
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
	if err := WriteRSSICSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRSSICSV(&buf)
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
	out, err := ReadEstimateCSV(&buf)
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
	if _, err := ReadTrajectoryCSV(strings.NewReader("o_id,building,floor,partition,x,y,t\nbad,b,0,P,0,0,0\n")); err == nil {
		t.Error("bad o_id accepted")
	}
	if _, err := ReadRSSICSV(strings.NewReader("o_id,d_id,rssi,t\n1,a,not-a-number,0\n")); err == nil {
		t.Error("bad rssi accepted")
	}
	if _, err := ReadProximityCSV(strings.NewReader("o_id,d_id,ts,te\n1,a,x,0\n")); err == nil {
		t.Error("bad ts accepted")
	}
	// Wrong column count.
	if _, err := ReadTrajectoryCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong field count accepted")
	}
}
