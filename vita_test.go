package vita

import "testing"

// TestGenerateDefault exercises the public API end to end.
func TestGenerateDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trajectory.Duration = 60
	cfg.Objects.Count = 5
	cfg.Objects.MinLifespan = 30
	cfg.Objects.MaxLifespan = 60
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trajectories.Len() == 0 || len(ds.RSSI) == 0 || len(ds.Estimates) == 0 {
		t.Fatalf("incomplete dataset: traj=%d rssi=%d est=%d",
			ds.Trajectories.Len(), len(ds.RSSI), len(ds.Estimates))
	}
	stats, _ := EvaluateEstimates(ds.Trajectories, ds.Estimates)
	if stats.N == 0 {
		t.Fatal("no evaluable estimates")
	}
	if hr := PartitionHitRate(ds.Trajectories, ds.Estimates); hr <= 0 || hr > 1 {
		t.Fatalf("partition hit rate out of range: %f", hr)
	}
}

// TestQueryEngine drives the public query surface end to end: stream a run
// into a VTB directory, open it as a QueryDataset, and answer each operator.
func TestQueryEngine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Trajectory.Duration = 120
	cfg.Objects.Count = 10
	cfg.Objects.MinLifespan = 100
	cfg.Objects.MaxLifespan = 120

	dir := t.TempDir()
	sink, err := NewDirSink(dir, StorageVTB)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateTo(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	qd, err := OpenQueryDataset(dir, QueryServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer qd.Close()

	info, err := qd.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Samples != ds.Trajectories.Len() || info.T1 <= info.T0 {
		t.Fatalf("info = %d samples over [%v, %v], want %d", info.Samples, info.T0, info.T1, ds.Trajectories.Len())
	}
	bounds := ds.Building.Floors[0].BBox()
	mid := (info.T0 + info.T1) / 2
	if r, err := qd.Range(RangeRequest{Floor: 0, Box: bounds, T0: info.T0, T1: info.T1}); err != nil || len(r.Hits) == 0 {
		t.Fatalf("full-floor range query empty (%v)", err)
	}
	if r, err := qd.KNN(KNNRequest{Floor: 0, At: bounds.Center(), T: mid, K: 3}); err != nil || len(r.Neighbors) == 0 {
		t.Fatalf("kNN query empty (%v)", err)
	}
	if r, err := qd.Density(DensityRequest{T: mid}); err != nil || len(r.Counts) == 0 {
		t.Fatalf("density query empty (%v)", err)
	}
	obj := ds.Trajectories.Objects()[0]
	if r, err := qd.Traj(TrajRequest{Obj: obj, T0: info.T0, T1: info.T1}); err != nil || len(r.Samples) != len(ds.Trajectories.Series(obj)) {
		t.Fatalf("object %d trajectory differs from the run's series (%v)", obj, err)
	}
	if r, err := qd.Dwell(DwellRequest{Floor: -1, T0: info.T0, T1: info.T1}); err != nil || len(r.Rooms) == 0 {
		t.Fatalf("dwell query empty (%v)", err)
	}

	// Standing query over every sample.
	if r, err := qd.Watch(WatchRequest{Floor: -1, Box: bounds}); err != nil || len(r.Events) == 0 {
		t.Fatalf("watch query saw no crossing (%v)", err)
	}
}
