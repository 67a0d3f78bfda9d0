package storage

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"vita/internal/ifc"
	"vita/internal/object"
	"vita/internal/rng"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// Append is the per-sample fill the pipeline used before series were handed
// over per object, kept as the oracle AppendSeries must reproduce and as the
// tests' shorthand for a one-sample append: it inserts the sample after
// every sample of its object at or before its instant, so each series stays
// time-sorted with equal instants in append order.
func (s *TrajectoryStore) Append(sm trajectory.Sample) {
	s.mu.Lock()
	ser := s.byObj[sm.ObjID]
	i := sort.Search(len(ser), func(i int) bool { return ser[i].T > sm.T })
	s.byObj[sm.ObjID] = slices.Insert(ser, i, sm)
	s.count++
	s.mu.Unlock()
}

// sameStore fails unless two stores hold the same series and count, and
// every series reads back time-sorted.
func sameStore(t *testing.T, where string, got, want *TrajectoryStore) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("%s: count %d, per-sample fill %d", where, got.count, want.count)
	}
	if len(got.byObj) != len(want.byObj) {
		t.Fatalf("%s: %d objects, per-sample fill %d", where, len(got.byObj), len(want.byObj))
	}
	for id, w := range want.byObj {
		if !slices.Equal(got.byObj[id], w) {
			t.Fatalf("%s: object %d series differs from the per-sample fill", where, id)
		}
	}
	for _, ser := range got.AllSeries() {
		if !slices.IsSortedFunc(ser, byTime) {
			t.Fatalf("%s: object %d reads back out of time order", where, ser[0].ObjID)
		}
	}
}

// TestAppendSeriesMatchesPerSample: series appended whole leave the store
// exactly as appending their samples one by one does, for in-order series,
// series continuing an object, out-of-order series and empty ones; reads
// come back sorted; and the store never writes into a series it kept.
func TestAppendSeriesMatchesPerSample(t *testing.T) {
	batches := [][]trajectory.Sample{
		{sample(1, 0, 0, 0, 0), sample(1, 0, 1, 0, 1), sample(1, 0, 2, 0, 2)},
		{sample(2, 0, 5, 5, 7), sample(2, 0, 5, 5, 3), sample(2, 1, 5, 5, 9)}, // out of order
		{sample(1, 0, 3, 0, 3), sample(1, 0, 4, 0, 4)},                        // continues 1
		{sample(3, 0, 0, 0, 10)},
		{sample(3, 0, 0, 0, 8)}, // earlier than 3's newest
		nil,
		{sample(4, 0, 0, 0, 5), sample(4, 0, 0, 0, 5)}, // equal instants stay in order
	}
	got, want := NewTrajectoryStore(), NewTrajectoryStore()
	kept := make([][]trajectory.Sample, len(batches))
	for i, b := range batches {
		kept[i] = slices.Clone(b)
		got.AppendSeries(b)
		for _, sm := range b {
			want.Append(sm)
		}
	}
	sameStore(t, "batches", got, want)
	for _, id := range got.Objects() {
		if ser := got.Series(id); !slices.Equal(ser, want.Series(id)) || !slices.IsSortedFunc(ser, byTime) {
			t.Errorf("object %d: Series differs or is out of time order", id)
		}
	}
	if !reflect.DeepEqual(got.AllSeries(), want.AllSeries()) {
		t.Error("AllSeries differs from the per-sample fill")
	}
	for i, b := range batches {
		if !slices.Equal(b, kept[i]) {
			t.Errorf("batch %d was modified by the store", i)
		}
	}
}

// TestSeriesHandOver: the engine's per-object series, merged by (time,
// object ID), are exactly the collector's stream; and the store the series
// fill (one AppendSeries per object, from the workers) equals the store the
// per-sample fill builds off that stream — at every worker count.
func TestSeriesHandOver(t *testing.T) {
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ifc.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(b, topo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var base []trajectory.Sample
	for _, p := range []int{1, 2, 8} {
		sp, err := object.NewSpawner(tp, object.SpawnConfig{
			InitialCount: 10, MinLifespan: 40, MaxLifespan: 110, MaxSpeed: 1.5,
			Pattern: object.DefaultPattern(), ArrivalRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := trajectory.NewEngine(tp, sp, trajectory.Config{Duration: 120, SampleInterval: 1, Parallelism: p}, rng.New(25))
		if err != nil {
			t.Fatal(err)
		}
		var (
			stream []trajectory.Sample
			mu     sync.Mutex
			series [][]trajectory.Sample
		)
		store := NewTrajectoryStore()
		col := trajectory.NewCollector(func(b []trajectory.Sample) error {
			stream = append(stream, b...)
			return nil
		})
		_, err = eng.Run(col, func(s []trajectory.Sample) {
			store.AppendSeries(s)
			mu.Lock()
			series = append(series, s)
			mu.Unlock()
		})
		if cerr := col.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(stream) == 0 {
			t.Fatal("no samples")
		}
		var merged []trajectory.Sample
		for _, s := range series {
			merged = append(merged, s...)
		}
		slices.SortStableFunc(merged, func(a, b trajectory.Sample) int {
			if a.T != b.T {
				if a.T < b.T {
					return -1
				}
				return 1
			}
			return a.ObjID - b.ObjID
		})
		if !slices.Equal(merged, stream) {
			t.Fatalf("p=%d: the per-object series regrouped differ from the collector stream", p)
		}
		perSample := NewTrajectoryStore()
		for _, sm := range stream {
			perSample.Append(sm)
		}
		sameStore(t, "engine run", store, perSample)
		if base == nil {
			base = stream
		} else if !slices.Equal(stream, base) {
			t.Fatalf("p=%d: stream differs from p=1", p)
		}
	}
}
