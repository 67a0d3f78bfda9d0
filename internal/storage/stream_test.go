package storage

import (
	"reflect"
	"slices"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

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

func TestDwellTimes(t *testing.T) {
	dt := DwellTimes(streamStore())
	// Object 1: 0-10 in A, 10-15 gap attributed to A, 15-20 in B.
	if got := dt[1]["A"]; got != 15 {
		t.Errorf("obj1 dwell in A = %v, want 15", got)
	}
	if got := dt[1]["B"]; got != 5 {
		t.Errorf("obj1 dwell in B = %v, want 5", got)
	}
	// Object 2: full 20s in root A (via child A.2).
	if got := dt[2]["A"]; got != 20 {
		t.Errorf("obj2 dwell in A = %v, want 20", got)
	}
}

func TestFlowMatrix(t *testing.T) {
	fm := FlowMatrix(streamStore())
	if got := fm["A"]["B"]; got != 1 {
		t.Errorf("A->B flow = %d, want 1", got)
	}
	if got := fm["B"]["A"]; got != 0 {
		t.Errorf("B->A flow = %d, want 0", got)
	}
	// Self transitions (A.2 → A.2 collapses to A → A) excluded.
	if _, ok := fm["A"]["A"]; ok {
		t.Error("self transition recorded")
	}
}

func TestVisitCountsAndTopPartitions(t *testing.T) {
	s := streamStore()
	vc := VisitCounts(s)
	if vc["A"] != 2 {
		t.Errorf("A visits = %d, want 2", vc["A"])
	}
	if vc["B"] != 1 {
		t.Errorf("B visits = %d, want 1", vc["B"])
	}
	top := TopPartitions(s, 1)
	if len(top) != 1 || top[0] != "A" {
		t.Errorf("TopPartitions = %v", top)
	}
	all := TopPartitions(s, 0)
	if len(all) != 2 {
		t.Errorf("TopPartitions(0) = %v", all)
	}
}

func TestPopulationOverTime(t *testing.T) {
	pop := PopulationOverTime(streamStore(), 10)
	// Buckets: [0,10): both objects; [10,20): both (1 in B from 15, 2 in A.2);
	// [20,30): both at t=20.
	if len(pop) != 3 {
		t.Fatalf("buckets = %d", len(pop))
	}
	if pop[0] != 2 || pop[1] != 2 {
		t.Errorf("population = %v", pop)
	}
}

func TestDeviceLoad(t *testing.T) {
	rs := NewRSSIStore()
	for _, tm := range []float64{1, 2, 65, 70} {
		rs.Append(rssi.Measurement{ObjID: 1, DeviceID: "d1", RSSI: -50, T: tm})
	}
	rs.Append(rssi.Measurement{ObjID: 1, DeviceID: "d2", RSSI: -50, T: 5})
	load := DeviceLoad(rs, 60)
	if got := load["d1"]; len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("d1 load = %v", got)
	}
	if got := load["d2"]; got[0] != 1 {
		t.Errorf("d2 load = %v", got)
	}
}

// TestAggregatesToleratOutOfOrderAppends is the regression test for the
// time-sorted invariant: samples appended out of time order must read back
// sorted, and every aggregate must compute as if they had arrived sorted.
func TestAggregatesTolerateOutOfOrderAppends(t *testing.T) {
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

	a, b := DwellTimes(sorted), DwellTimes(shuffled)
	for obj, want := range a {
		for part, w := range want {
			if got := b[obj][part]; got != w {
				t.Errorf("dwell obj %d part %s = %v, want %v", obj, part, got, w)
			}
		}
	}
	fa, fb := FlowMatrix(sorted), FlowMatrix(shuffled)
	if fb["A"]["B"] != fa["A"]["B"] || fb["B"]["A"] != fa["B"]["A"] {
		t.Errorf("flows differ: sorted %v vs shuffled %v", fa, fb)
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

func times(series []trajectory.Sample) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		out[i] = s.T
	}
	return out
}
