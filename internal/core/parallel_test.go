package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"vita/internal/storage"
	"vita/internal/trajectory"
)

// TestParallelismByteIdenticalCSV is the pipeline-level reproducibility
// guarantee of sharded generation: for a fixed seed, every Parallelism value
// must serialize to exactly the same trajectory and RSSI CSV bytes.
func TestParallelismByteIdenticalCSV(t *testing.T) {
	type output struct{ traj, rssi []byte }
	run := func(p int) output {
		t.Helper()
		ds := runPipeline(t, func(c *Config) {
			c.Parallelism = p
			c.Objects.ArrivalRate = 0.03        // mid-run births must not break ordering
			c.Positioning = PositioningConfig{} // generation layers only
		})
		var tb, rb bytes.Buffer
		if err := storage.WriteTrajectoryCSV(&tb, ds.Trajectories.All()); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteRSSICSV(&rb, ds.RSSI); err != nil {
			t.Fatal(err)
		}
		if tb.Len() == 0 || rb.Len() == 0 {
			t.Fatal("empty CSV output")
		}
		return output{traj: tb.Bytes(), rssi: rb.Bytes()}
	}

	base := run(1)
	for _, p := range []int{2, 8} {
		p := p
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			got := run(p)
			if !bytes.Equal(got.traj, base.traj) {
				t.Errorf("trajectory CSV differs from sequential output (%d vs %d bytes)",
					len(got.traj), len(base.traj))
			}
			if !bytes.Equal(got.rssi, base.rssi) {
				t.Errorf("RSSI CSV differs from sequential output (%d vs %d bytes)",
					len(got.rssi), len(base.rssi))
			}
		})
	}
}

// TestParallelismFullPipelineDeterminism runs the positioning layer too: the
// derived estimates must also be identical, since every stage draws from
// streams keyed only by the seed.
func TestParallelismFullPipelineDeterminism(t *testing.T) {
	run := func(p int) *Dataset {
		return runPipeline(t, func(c *Config) { c.Parallelism = p })
	}
	a, b := run(1), run(4)
	if a.Trajectories.Len() != b.Trajectories.Len() {
		t.Fatalf("trajectory counts differ: %d vs %d", a.Trajectories.Len(), b.Trajectories.Len())
	}
	am, bm := a.RSSI, b.RSSI
	if len(am) != len(bm) {
		t.Fatalf("RSSI counts differ: %d vs %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("RSSI measurement %d differs: %+v vs %+v", i, am[i], bm[i])
		}
	}
	ae, be := a.Estimates, b.Estimates
	if len(ae) != len(be) {
		t.Fatalf("estimate counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("estimate %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

// TestPipelineAppendsTimeSorted pins the collector-to-storage contract:
// every object's series reads back from the store in time order.
func TestPipelineAppendsTimeSorted(t *testing.T) {
	ds := runPipeline(t, func(c *Config) { c.Parallelism = 4 })
	for _, series := range ds.Trajectories.AllSeries() {
		if !slices.IsSortedFunc(series, func(a, b trajectory.Sample) int { return cmp.Compare(a.T, b.T) }) {
			t.Errorf("object %d reads back out of time order", series[0].ObjID)
		}
	}
}

func TestNewPipelineRejectsNegativeParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if _, err := NewPipeline(cfg); err == nil {
		t.Error("negative parallelism accepted")
	}
}
