package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

func truthStore() *storage.TrajectoryStore {
	// Object 1 walks from (0,0) to (10,0) over 10s on floor 0.
	var series []trajectory.Sample
	for tt := 0.0; tt <= 10; tt++ {
		series = append(series, trajectory.Sample{
			ObjID: 1,
			Loc:   model.At("b", 0, "P", geom.Pt(tt, 0)),
			T:     tt,
		})
	}
	s := storage.NewTrajectoryStore()
	s.AppendSeries(series)
	return s
}

func TestEvaluateEstimatesInterpolates(t *testing.T) {
	s := truthStore()
	ests := []positioning.Estimate{
		// Exact hit at an interpolated instant: truth at t=2.5 is (2.5, 0).
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(2.5, 0)), T: 2.5},
		// 3m error at t=7: truth (7,0), estimate (7,3).
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(7, 3)), T: 7},
	}
	stats, floorMiss := EvaluateEstimates(s, ests)
	if floorMiss != 0 {
		t.Errorf("floor mismatches = %d", floorMiss)
	}
	if stats.N != 2 {
		t.Fatalf("N = %d", stats.N)
	}
	if math.Abs(stats.Mean-1.5) > 1e-9 {
		t.Errorf("mean = %v, want 1.5", stats.Mean)
	}
	if math.Abs(stats.Max-3) > 1e-9 {
		t.Errorf("max = %v, want 3", stats.Max)
	}
}

func TestEvaluateEstimatesFloorMismatch(t *testing.T) {
	s := truthStore()
	ests := []positioning.Estimate{
		{ObjID: 1, Loc: model.At("b", 1, "P", geom.Pt(5, 0)), T: 5},
	}
	stats, floorMiss := EvaluateEstimates(s, ests)
	if floorMiss != 1 || stats.N != 0 {
		t.Errorf("floorMiss=%d N=%d", floorMiss, stats.N)
	}
}

func TestEvaluateEstimatesUnknownObject(t *testing.T) {
	s := truthStore()
	ests := []positioning.Estimate{
		{ObjID: 42, Loc: model.At("b", 0, "P", geom.Pt(0, 0)), T: 1},
	}
	stats, _ := EvaluateEstimates(s, ests)
	if stats.N != 0 {
		t.Errorf("unknown object evaluated: N=%d", stats.N)
	}
}

func TestEvaluateEstimatesClampsOutsideTimeRange(t *testing.T) {
	s := truthStore()
	ests := []positioning.Estimate{
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(0, 0)), T: -5},
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(10, 0)), T: 99},
	}
	stats, _ := EvaluateEstimates(s, ests)
	if stats.N != 2 || stats.Max > 1e-9 {
		t.Errorf("clamped evaluation wrong: %+v", stats)
	}
}

func TestPartitionHitRateCollapsesChildren(t *testing.T) {
	s := storage.NewTrajectoryStore()
	s.AppendSeries([]trajectory.Sample{{ObjID: 1, Loc: model.At("b", 0, "P.1", geom.Pt(0, 0)), T: 0}})
	ests := []positioning.Estimate{
		{ObjID: 1, Loc: model.At("b", 0, "P.2", geom.Pt(0, 0)), T: 0}, // sibling
		{ObjID: 1, Loc: model.At("b", 0, "Q", geom.Pt(0, 0)), T: 0},   // miss
	}
	if hr := PartitionHitRate(s, ests); math.Abs(hr-0.5) > 1e-9 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
	if hr := PartitionHitRate(s, nil); hr != 0 {
		t.Errorf("empty estimates hit rate = %v", hr)
	}
}

func TestErrorStatsString(t *testing.T) {
	s := ErrorStats{N: 3, Mean: 1.5, Median: 1, P95: 2, Max: 3}
	if s.String() == "" {
		t.Error("empty ErrorStats string")
	}
}

// evalOracle is EvaluateEstimates and PartitionHitRate with one Series copy
// per estimate: the order-free reference for fetching each series once per
// run of one object's estimates.
func evalOracle(truth *storage.TrajectoryStore, ests []positioning.Estimate) (ErrorStats, int, float64) {
	var errs []float64
	floorMiss, hits := 0, 0
	for _, e := range ests {
		series := truth.Series(e.ObjID)
		if pt, floor, ok := truthAt(series, e.T); ok && floor != e.Loc.Floor {
			floorMiss++
		} else if ok {
			errs = append(errs, pt.Dist(e.Loc.Point))
		}
		if len(series) > 0 {
			idx := min(sort.Search(len(series), func(i int) bool { return series[i].T >= e.T }), len(series)-1)
			if sameOrParent(series[idx].Loc.Partition, e.Loc.Partition) {
				hits++
			}
		}
	}
	hitRate := 0.0
	if len(ests) > 0 {
		hitRate = float64(hits) / float64(len(ests))
	}
	return summarize(errs), floorMiss, hitRate
}

// TestEvaluationMatchesPerEstimateOracle: on a run's estimates, in the
// pipeline's (object, time) order and shuffled, the error stats, the
// floor-miss count and the hit rate are exactly the per-estimate oracle's.
func TestEvaluationMatchesPerEstimateOracle(t *testing.T) {
	ds := runPipeline(t, nil)
	ordered := ds.Estimates
	if !sort.SliceIsSorted(ordered, func(i, j int) bool { return ordered[i].ObjID < ordered[j].ObjID }) {
		t.Fatal("the pipeline's estimates are not in object order")
	}
	shuffled := slices.Clone(ordered)
	rng.New(3).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// An estimate of an object with no ground truth, and one before any.
	unknown := append(slices.Clone(ordered), positioning.Estimate{ObjID: 1 << 20, T: 5}, positioning.Estimate{ObjID: ordered[0].ObjID, T: -50})
	for name, ests := range map[string][]positioning.Estimate{"ordered": ordered, "shuffled": shuffled, "with strays": unknown} {
		stats, floorMiss := EvaluateEstimates(ds.Trajectories, ests)
		hitRate := PartitionHitRate(ds.Trajectories, ests)
		wantStats, wantMiss, wantRate := evalOracle(ds.Trajectories, ests)
		if stats != wantStats || floorMiss != wantMiss || hitRate != wantRate {
			t.Errorf("%s: %v, %d floor misses, hit rate %v; the oracle has %v, %d, %v",
				name, stats, floorMiss, hitRate, wantStats, wantMiss, wantRate)
		}
		if stats.N == 0 {
			t.Errorf("%s: no estimate evaluated", name)
		}
	}
}
