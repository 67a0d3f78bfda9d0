package core

import (
	"fmt"
	"sort"

	"vita/internal/model"
	"vita/internal/positioning"
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
// trajectory ground truth, the run's series slots (Dataset.Trajectories):
// for each estimate, the true position at the estimate's timestamp is
// trajectory.SeriesAt of its object's series and the Euclidean error taken.
// Estimates whose true floor differs from the estimated floor contribute
// the floor-mismatch count instead; estimates of an object with no sample
// are skipped.
func EvaluateEstimates(truth [][]trajectory.Sample, ests []positioning.Estimate) (ErrorStats, int) {
	var errs []float64
	floorMiss := 0
	for _, e := range ests {
		loc, ok := trueLocation(truth, e)
		switch {
		case !ok:
		case loc.Floor != e.Loc.Floor:
			floorMiss++
		default:
			errs = append(errs, loc.Point.Dist(e.Loc.Point))
		}
	}
	return summarize(errs), floorMiss
}

// PartitionHitRate returns the fraction of estimates that place their object
// in the room, on the floor, where the ground truth has it — the symbolic
// accuracy notion used for proximity-grade data. Rooms are compared through
// b's partitions (model.Partition.Room), so decomposed pieces of one room
// match each other and no two rooms match by a shared ID prefix; an ID b
// does not know is its own room.
func PartitionHitRate(b *model.Building, truth [][]trajectory.Sample, ests []positioning.Estimate) float64 {
	if len(ests) == 0 {
		return 0
	}
	room := func(l model.Location) string {
		if p, ok := b.Partition(l.Floor, l.Partition); ok {
			return p.Room()
		}
		return l.Partition
	}
	hits := 0
	for _, e := range ests {
		if loc, ok := trueLocation(truth, e); ok && loc.Floor == e.Loc.Floor && room(loc) == room(e.Loc) {
			hits++
		}
	}
	return float64(hits) / float64(len(ests))
}

// trueLocation is the ground-truth location of e's object at e's instant, from
// the object's slot (object i+1 is slot i).
func trueLocation(truth [][]trajectory.Sample, e positioning.Estimate) (model.Location, bool) {
	if e.ObjID < 1 || e.ObjID > len(truth) {
		return model.Location{}, false
	}
	return trajectory.SeriesAt(truth[e.ObjID-1], e.T)
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
