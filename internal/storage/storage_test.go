package storage

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	all := s.All()
	if len(all) != 4 || all[0].ObjID != 1 {
		t.Fatalf("All = %+v", all)
	}
}

func sampleIn(obj int, part string, t float64) trajectory.Sample {
	return trajectory.Sample{
		ObjID: obj,
		Loc:   model.At("b", 0, part, geom.Pt(t, 0)),
		T:     t,
	}
}

// streamStore builds a small trajectory: object 1 moves A(0-10s) → B(15-20s),
// object 2 stays in A.2 (a decomposed child of A) the whole time.
func streamStore() *TrajectoryStore {
	s := NewTrajectoryStore()
	for t := 0.0; t <= 10; t += 5 {
		s.Append(sampleIn(1, "A", t))
	}
	for t := 15.0; t <= 20; t += 5 {
		s.Append(sampleIn(1, "B", t))
	}
	for t := 0.0; t <= 20; t += 5 {
		s.Append(sampleIn(2, "A.2", t))
	}
	return s
}

// TestOutOfOrderAppendsReadBackSorted is the regression test for the
// time-sorted invariant: samples appended out of time order must read back
// as if they had arrived sorted.
func TestOutOfOrderAppendsReadBackSorted(t *testing.T) {
	sorted := streamStore()

	shuffled := NewTrajectoryStore()
	// Same samples as streamStore, object 1 appended in reversed time order.
	for t := 20.0; t >= 15; t -= 5 {
		shuffled.AppendSeries([]trajectory.Sample{sampleIn(1, "B", t)})
	}
	for t := 10.0; t >= 0; t -= 5 {
		shuffled.AppendSeries([]trajectory.Sample{sampleIn(1, "A", t)})
	}
	for t := 0.0; t <= 20; t += 5 {
		shuffled.AppendSeries([]trajectory.Sample{sampleIn(2, "A.2", t)})
	}

	if !reflect.DeepEqual(shuffled.AllSeries(), sorted.AllSeries()) {
		t.Fatal("out-of-order appends read back differently from in-order ones")
	}

	// Series itself must come back time-sorted.
	series := shuffled.Series(1)
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			t.Fatalf("Series(1) not sorted at %d: %v after %v", i, series[i].T, series[i-1].T)
		}
	}
}

// TestSeriesFastPathPreservesOrder pins the fast path: in-order appends are
// returned exactly as inserted.
func TestSeriesFastPathPreservesOrder(t *testing.T) {
	s := NewTrajectoryStore()
	for i := 0; i <= 10; i++ {
		s.AppendSeries([]trajectory.Sample{sampleIn(3, "A", float64(i))})
	}
	series := s.Series(3)
	if len(series) != 11 {
		t.Fatalf("len = %d", len(series))
	}
	for i, sm := range series {
		if sm.T != float64(i) {
			t.Fatalf("series[%d].T = %v", i, sm.T)
		}
	}
}

// TestSeriesRepairPersists pins that out-of-order appends are sorted in at
// append time: every read, including the first, sees the series sorted, and
// an in-order append after them lands last.
func TestSeriesRepairPersists(t *testing.T) {
	s := NewTrajectoryStore()
	for _, at := range []float64{10, 5, 7} { // 5 and 7 arrive out of order
		s.AppendSeries([]trajectory.Sample{sampleIn(1, "A", at)})
	}
	for read := 0; read < 2; read++ {
		if got := times(s.Series(1)); !slices.Equal(got, []float64{5, 7, 10}) {
			t.Fatalf("read %d: Series times %v, want [5 7 10]", read, got)
		}
	}
	s.AppendSeries([]trajectory.Sample{sampleIn(1, "A", 12)})
	if got := times(s.Series(1)); !slices.Equal(got, []float64{5, 7, 10, 12}) {
		t.Errorf("Series times %v after an in-order append, want [5 7 10 12]", got)
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

func times(series []trajectory.Sample) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		out[i] = s.T
	}
	return out
}
