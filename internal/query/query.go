package query

import (
	"sort"

	"vita/internal/geom"
	"vita/internal/index"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// This file implements the offline query operators. Each operator prunes in
// time first (bucket selection) and in space second (R-tree descent inside
// the surviving buckets), then verifies exact predicates on the candidates.

// Range returns every sample on floor inside box during [t0, t1], ordered by
// (object, time); samples that tie on both keep their input order. A negative
// floor searches all floors. A symbolic sample (no point) is inside no box.
func (ix *TrajectoryIndex) Range(floor int, box geom.BBox, t0, t1 float64) []trajectory.Sample {
	b0, b1, ok := ix.clampBuckets(t0, t1)
	if !ok || box.IsEmpty() {
		return nil
	}
	var hits []*sampleItem
	floors := ix.floors
	if floor >= 0 {
		floors = []int{floor}
	}
	var buf []index.Item
	for _, fl := range floors {
		for b := b0; b <= b1; b++ {
			bk, ok := ix.buckets[bucketKey{floor: fl, bucket: b}]
			if !ok {
				continue
			}
			buf = bk.tree.Search(box, buf[:0])
			for _, it := range buf {
				si := it.(*sampleItem)
				if s := si.s; s.T >= t0 && s.T <= t1 && s.Loc.HasPoint && box.Contains(s.Loc.Point) {
					hits = append(hits, si)
				}
			}
		}
	}
	if len(hits) == 0 {
		return nil
	}
	// The R-tree returns candidates in packing order, so input position is an
	// explicit last key rather than something a stable sort could preserve.
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.s.ObjID != b.s.ObjID {
			return a.s.ObjID < b.s.ObjID
		}
		if a.s.T != b.s.T {
			return a.s.T < b.s.T
		}
		return a.seq < b.seq
	})
	out := make([]trajectory.Sample, len(hits))
	for i, h := range hits {
		out[i] = h.s
	}
	return out
}

// RangeObjects returns the distinct object IDs observed on floor inside box
// during [t0, t1], sorted.
func (ix *TrajectoryIndex) RangeObjects(floor int, box geom.BBox, t0, t1 float64) []int {
	seen := make(map[int]bool)
	for _, s := range ix.Range(floor, box, t0, t1) {
		seen[s.ObjID] = true
	}
	return sortedKeys(seen)
}

// Neighbor is one kNN result: an object, its (possibly interpolated) location
// at the query instant, and its distance to the query point.
type Neighbor struct {
	ObjID int
	Loc   model.Location
	Dist  float64
}

// KNN returns up to k objects on floor nearest to p at instant t, nearest
// first (ties break on object ID). A negative floor searches all floors.
// Object positions are linearly interpolated between the samples bracketing
// t; objects without a sample within MaxGap of t are not considered.
func (ix *TrajectoryIndex) KNN(floor int, p geom.Point, t float64, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	// Candidates: any object with a sample on the floor within MaxGap of t.
	// Bucket membership over [t-MaxGap, t+MaxGap] is a superset of those.
	cands := ix.candidateObjects(floor, t-ix.opts.MaxGap, t+ix.opts.MaxGap)
	out := make([]Neighbor, 0, len(cands))
	for _, id := range cands {
		loc, ok := ix.interpolate(id, t)
		if !ok || (floor >= 0 && loc.Floor != floor) || !loc.HasPoint {
			continue
		}
		out = append(out, Neighbor{ObjID: id, Loc: loc, Dist: p.Dist(loc.Point)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ObjID < out[j].ObjID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Density returns, per partition, the number of objects located in it at
// instant t (interpolated positions). Partitions with no objects are absent
// from the map.
func (ix *TrajectoryIndex) Density(t float64) map[string]int {
	out := make(map[string]int)
	for _, id := range ix.candidateObjects(-1, t-ix.opts.MaxGap, t+ix.opts.MaxGap) {
		loc, ok := ix.interpolate(id, t)
		if !ok || loc.Partition == "" {
			continue
		}
		out[loc.Partition]++
	}
	return out
}

// FloorDensity returns, per floor, the number of objects on it at instant t.
func (ix *TrajectoryIndex) FloorDensity(t float64) map[int]int {
	out := make(map[int]int)
	for _, id := range ix.candidateObjects(-1, t-ix.opts.MaxGap, t+ix.opts.MaxGap) {
		loc, ok := ix.interpolate(id, t)
		if !ok {
			continue
		}
		out[loc.Floor]++
	}
	return out
}

// ObjectTrajectory returns the object's samples within [t0, t1] in time
// order; samples at the same instant keep their input order.
func (ix *TrajectoryIndex) ObjectTrajectory(objID int, t0, t1 float64) []trajectory.Sample {
	ser := ix.series[objID]
	lo := sort.Search(len(ser), func(i int) bool { return ser[i].T >= t0 })
	hi := sort.Search(len(ser), func(i int) bool { return ser[i].T > t1 })
	if hi <= lo {
		return nil
	}
	out := make([]trajectory.Sample, hi-lo)
	copy(out, ser[lo:hi])
	return out
}
