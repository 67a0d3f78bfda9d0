package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/trajectory"
)

func truthStore() [][]trajectory.Sample {
	// Object 1 walks from (0,0) to (10,0) over 10s on floor 0.
	var series []trajectory.Sample
	for tt := 0.0; tt <= 10; tt++ {
		series = append(series, trajectory.Sample{
			ObjID: 1,
			Loc:   model.At("b", 0, "P", geom.Pt(tt, 0)),
			T:     tt,
		})
	}
	return [][]trajectory.Sample{series}
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
		{ObjID: 0, Loc: model.At("b", 0, "P", geom.Pt(0, 0)), T: 1},
		{ObjID: -1, Loc: model.At("b", 0, "P", geom.Pt(0, 0)), T: 1},
	}
	stats, floorMiss := EvaluateEstimates(s, ests)
	if stats.N != 0 || floorMiss != 0 {
		t.Errorf("unknown objects evaluated: N=%d, %d floor misses", stats.N, floorMiss)
	}
	if hr := PartitionHitRate(roomsBuilding(t, "P"), s, ests); hr != 0 {
		t.Errorf("unknown objects hit: rate %v", hr)
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

// roomsBuilding is a one-floor building with one partition per ID; an ID
// "R/P" is a piece of room R cut by decomposition.
func roomsBuilding(t *testing.T, ids ...string) *model.Building {
	t.Helper()
	b := model.NewBuilding("b", "b")
	f := model.NewFloor(0, 0, 3)
	for i, id := range ids {
		parent, id, _ := strings.Cut(id, "/")
		if id == "" {
			parent, id = "", parent
		}
		x := float64(i)
		p := &model.Partition{ID: id, Floor: 0, Parent: parent, Polygon: geom.Rect(x, 0, x+1, 1)}
		if err := f.AddPartition(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddFloor(f); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPartitionHitRateCollapsesChildren(t *testing.T) {
	b := roomsBuilding(t, "P/P.1", "P/P.2", "Q")
	s := [][]trajectory.Sample{{{ObjID: 1, Loc: model.At("b", 0, "P.1", geom.Pt(0, 0)), T: 0}}}
	ests := []positioning.Estimate{
		{ObjID: 1, Loc: model.At("b", 0, "P.2", geom.Pt(0, 0)), T: 0}, // sibling
		{ObjID: 1, Loc: model.At("b", 0, "Q", geom.Pt(0, 0)), T: 0},   // miss
		{ObjID: 1, Loc: model.At("b", 1, "P.1", geom.Pt(0, 0)), T: 0}, // other floor
		{ObjID: 1, Loc: model.At("b", 0, "P", geom.Pt(0, 0)), T: 0},   // the room itself
	}
	if hr := PartitionHitRate(b, s, ests); math.Abs(hr-0.5) > 1e-9 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
	if hr := PartitionHitRate(b, s, nil); hr != 0 {
		t.Errorf("empty estimates hit rate = %v", hr)
	}
}

// TestPartitionHitRateComparesRooms: rooms whose IDs share a prefix up to a
// dot (F0.A, F0.B) are different rooms, while the pieces decomposition cut
// from one (F0.A.1, F0.A.2) are the same room.
func TestPartitionHitRateComparesRooms(t *testing.T) {
	b := roomsBuilding(t, "F0.A/F0.A.1", "F0.A/F0.A.2", "F0.B")
	s := [][]trajectory.Sample{{
		{ObjID: 1, Loc: model.At("b", 0, "F0.A.1", geom.Pt(0.5, 0.5)), T: 0},
		{ObjID: 1, Loc: model.At("b", 0, "F0.B", geom.Pt(2.5, 0.5)), T: 10},
	}}
	for _, c := range []struct {
		part string
		t    float64
		want float64
	}{
		{"F0.A.2", 1, 1}, // a piece of the true room
		{"F0.B", 1, 0},   // another room with the same prefix
		{"F0.A.1", 9, 0}, // the nearer sample is in F0.B
		{"F0.B", 9, 1},
	} {
		ests := []positioning.Estimate{{ObjID: 1, Loc: model.At("b", 0, c.part, geom.Pt(0, 0)), T: c.t}}
		if hr := PartitionHitRate(b, s, ests); hr != c.want {
			t.Errorf("estimate in %s at t=%v: hit rate %v, want %v", c.part, c.t, hr, c.want)
		}
	}
}

func TestErrorStatsString(t *testing.T) {
	s := ErrorStats{N: 3, Mean: 1.5, Median: 1, P95: 2, Max: 3}
	if s.String() == "" {
		t.Error("empty ErrorStats string")
	}
}

// evalOracle is EvaluateEstimates and PartitionHitRate by linear scans:
// each estimate's series is found by scanning every slot, its bracket by
// scanning the series, and the interpolation is written out here (clamped
// at both ends; across floors the nearer sample, the earlier on a tie).
func evalOracle(b *model.Building, truth [][]trajectory.Sample, ests []positioning.Estimate) (ErrorStats, int, float64) {
	room := func(floor int, id string) string {
		f, _ := b.Floor(floor)
		for _, p := range f.Partitions {
			if p.ID == id && p.Parent != "" {
				return p.Parent
			}
		}
		return id
	}
	var errs []float64
	floorMiss, hits := 0, 0
	for _, e := range ests {
		var series []trajectory.Sample
		for _, s := range truth {
			if len(s) > 0 && s[0].ObjID == e.ObjID {
				series = s
			}
		}
		if len(series) == 0 {
			continue
		}
		j := 0
		for j < len(series) && series[j].T < e.T {
			j++
		}
		a, c := series[max(j-1, 0)], series[min(j, len(series)-1)]
		near := a
		if c.T-e.T < e.T-a.T {
			near = c
		}
		pt := near.Loc.Point
		if a.Loc.Floor == c.Loc.Floor && c.T > a.T {
			pt = a.Loc.Point.Lerp(c.Loc.Point, (e.T-a.T)/(c.T-a.T))
		}
		if near.Loc.Floor != e.Loc.Floor {
			floorMiss++
			continue
		}
		errs = append(errs, pt.Dist(e.Loc.Point))
		if room(near.Loc.Floor, near.Loc.Partition) == room(e.Loc.Floor, e.Loc.Partition) {
			hits++
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
// floor-miss count and the hit rate are exactly the linear-scan oracle's.
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
		hitRate := PartitionHitRate(ds.Building, ds.Trajectories, ests)
		wantStats, wantMiss, wantRate := evalOracle(ds.Building, ds.Trajectories, ests)
		if stats != wantStats || floorMiss != wantMiss || hitRate != wantRate {
			t.Errorf("%s: %v, %d floor misses, hit rate %v; the oracle has %v, %d, %v",
				name, stats, floorMiss, hitRate, wantStats, wantMiss, wantRate)
		}
		if stats.N == 0 {
			t.Errorf("%s: no estimate evaluated", name)
		}
	}
}
