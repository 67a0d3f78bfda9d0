package core

import (
	"math"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
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
