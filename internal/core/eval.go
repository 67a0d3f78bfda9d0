package core

import (
	"fmt"
	"sort"

	"vita/internal/geom"
	"vita/internal/positioning"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// ErrorStats summarizes positioning error against the preserved ground
// truth — the evaluation use case motivating the toolkit (paper §1 purpose
// (2)).
type ErrorStats struct {
	N      int
	Mean   float64
	Median float64
	P95    float64
	Max    float64
}

// String implements fmt.Stringer.
func (s ErrorStats) String() string {
	return fmt.Sprintf("n=%d mean=%.2fm median=%.2fm p95=%.2fm max=%.2fm",
		s.N, s.Mean, s.Median, s.P95, s.Max)
}

// EvaluateEstimates compares positioning estimates against the raw
// trajectory ground truth: for each estimate, the true position at the
// estimate's timestamp is linearly interpolated from the trajectory samples
// and the Euclidean error taken. Estimates whose true floor differs from
// the estimated floor contribute the floor-mismatch count instead.
func EvaluateEstimates(truth *storage.TrajectoryStore, ests []positioning.Estimate) (ErrorStats, int) {
	var errs []float64
	floorMiss := 0
	withSeries(truth, ests, func(e positioning.Estimate, series []trajectory.Sample) {
		pt, floor, ok := truthAt(series, e.T)
		switch {
		case !ok:
		case floor != e.Loc.Floor:
			floorMiss++
		default:
			errs = append(errs, pt.Dist(e.Loc.Point))
		}
	})
	return summarize(errs), floorMiss
}

// PartitionHitRate returns the fraction of estimates whose partition (or its
// decomposition parent) matches the ground-truth partition — the symbolic
// accuracy notion used for proximity-grade data.
func PartitionHitRate(truth *storage.TrajectoryStore, ests []positioning.Estimate) float64 {
	if len(ests) == 0 {
		return 0
	}
	hits := 0
	withSeries(truth, ests, func(e positioning.Estimate, series []trajectory.Sample) {
		if len(series) == 0 {
			return
		}
		idx := sort.Search(len(series), func(i int) bool { return series[i].T >= e.T })
		if idx >= len(series) {
			idx = len(series) - 1
		}
		if sameOrParent(series[idx].Loc.Partition, e.Loc.Partition) {
			hits++
		}
	})
	return float64(hits) / float64(len(ests))
}

// withSeries calls fn with each estimate and its object's ground-truth
// series, fetched once per run of estimates of one object: estimates in
// (object, time) order, as the pipeline keeps them, copy each series once.
func withSeries(truth *storage.TrajectoryStore, ests []positioning.Estimate, fn func(positioning.Estimate, []trajectory.Sample)) {
	var series []trajectory.Sample
	for i, e := range ests {
		if i == 0 || e.ObjID != ests[i-1].ObjID {
			series = truth.Series(e.ObjID)
		}
		fn(e, series)
	}
}

// sameOrParent treats decomposed siblings ("P.1", "P.2") as matching their
// parent and each other.
func sameOrParent(a, b string) bool {
	return root(a) == root(b)
}

func root(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '.' {
			return id[:i]
		}
	}
	return id
}

// truthAt interpolates the ground-truth position of an object, whose series
// is given, at time t.
func truthAt(series []trajectory.Sample, t float64) (geom.Point, int, bool) {
	if len(series) == 0 {
		return geom.Point{}, 0, false
	}
	idx := sort.Search(len(series), func(i int) bool { return series[i].T >= t })
	var a, b trajectory.Sample
	switch {
	case idx == 0:
		a, b = series[0], series[0]
	case idx >= len(series):
		a, b = series[len(series)-1], series[len(series)-1]
	default:
		a, b = series[idx-1], series[idx]
	}
	if a.Loc.Floor != b.Loc.Floor {
		if t-a.T <= b.T-t {
			b = a
		} else {
			a = b
		}
	}
	var frac float64
	if b.T > a.T {
		frac = (t - a.T) / (b.T - a.T)
	}
	return a.Loc.Point.Lerp(b.Loc.Point, frac), a.Loc.Floor, true
}

func summarize(errs []float64) ErrorStats {
	if len(errs) == 0 {
		return ErrorStats{}
	}
	sort.Float64s(errs)
	var sum float64
	for _, e := range errs {
		sum += e
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(errs)-1))
		return errs[i]
	}
	return ErrorStats{
		N:      len(errs),
		Mean:   sum / float64(len(errs)),
		Median: pct(0.5),
		P95:    pct(0.95),
		Max:    errs[len(errs)-1],
	}
}
