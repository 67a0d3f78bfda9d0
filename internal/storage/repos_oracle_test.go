package storage

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"vita/internal/ifc"
	"vita/internal/object"
	"vita/internal/rng"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// Append is the per-sample fill the pipeline used before series were handed
// over per object: one lock and three map operations per sample, off the
// merge collector's time-ordered stream. It is kept as the oracle
// AppendSeries must reproduce, and as the tests' shorthand for a
// one-sample append.
func (s *TrajectoryStore) Append(sm trajectory.Sample) {
	s.mu.Lock()
	if last, ok := s.lastT[sm.ObjID]; !ok || sm.T >= last {
		s.lastT[sm.ObjID] = sm.T
	} else {
		s.dirty[sm.ObjID] = true
	}
	s.byObj[sm.ObjID] = append(s.byObj[sm.ObjID], sm)
	s.count++
	s.mu.Unlock()
}

// sameStore fails unless two stores hold the same series and the same
// bookkeeping (newest timestamps, repair flags, count).
func sameStore(t *testing.T, where string, got, want *TrajectoryStore) {
	t.Helper()
	if got.count != want.count || !reflect.DeepEqual(got.lastT, want.lastT) || !reflect.DeepEqual(got.dirty, want.dirty) {
		t.Fatalf("%s: count/lastT/dirty %d/%v/%v, per-sample fill %d/%v/%v",
			where, got.count, got.lastT, got.dirty, want.count, want.lastT, want.dirty)
	}
	if len(got.byObj) != len(want.byObj) {
		t.Fatalf("%s: %d objects, per-sample fill %d", where, len(got.byObj), len(want.byObj))
	}
	for id, w := range want.byObj {
		if !slices.Equal(got.byObj[id], w) {
			t.Fatalf("%s: object %d series differs from the per-sample fill", where, id)
		}
	}
}

// TestAppendSeriesMatchesPerSample: series appended whole leave the store
// exactly as appending their samples one by one does, for in-order series,
// series continuing an object, out-of-order series and empty ones; and the
// store never writes into a series it kept.
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
	if got.Unsorted() != 2 {
		t.Errorf("Unsorted = %d, want 2 (objects 2 and 3)", got.Unsorted())
	}
	for _, id := range got.Objects() {
		if !slices.Equal(got.Series(id), want.Series(id)) {
			t.Errorf("object %d: repaired series differ", id)
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
	b, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
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
