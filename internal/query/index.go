// Package query is Vita's spatio-temporal query engine over generated
// datasets. The paper's Storage layer promises "featured spatial indices to
// support query processing" (§2); this package supplies that processing over
// the raw-trajectory output: spatial range × time window, kNN of objects at
// an instant, per-partition snapshot density, trajectory retrieval, and
// standing (continuous) range queries over streamed samples.
//
// The core structure is TrajectoryIndex: samples are bucketed by (floor,
// time-bucket) and each bucket is packed into an STR bulk-loaded R-tree
// (internal/index), so a query prunes first in time (bucket selection), then
// in space (R-tree descent). Per-object time-sorted series support
// interpolation between samples and trajectory retrieval.
package query

import (
	"math"
	"sort"

	"vita/internal/geom"
	"vita/internal/index"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// Options tunes the index layout.
type Options struct {
	// BucketWidth is the seconds covered by one time bucket (default 60).
	// Smaller buckets prune time windows more sharply at the cost of more
	// R-trees.
	BucketWidth float64
	// MaxGap is the maximum seconds between consecutive samples across which
	// instant queries (kNN, density) still interpolate a position; beyond it
	// the object is considered unobserved (default 10).
	MaxGap float64
}

// DefaultOptions returns the default index layout.
func DefaultOptions() Options { return Options{BucketWidth: 60, MaxGap: 10} }

func (o Options) withDefaults() Options {
	if o.BucketWidth <= 0 {
		o.BucketWidth = 60
	}
	if o.MaxGap <= 0 {
		o.MaxGap = 10
	}
	return o
}

// sampleItem adapts one trajectory sample to the R-tree Item interface. seq is
// the sample's position in the input, which orders samples that tie on
// (object, time) however the R-tree happened to pack them.
type sampleItem struct {
	s   trajectory.Sample
	seq int
}

func (it *sampleItem) Bounds() geom.BBox {
	return geom.BBox{Min: it.s.Loc.Point, Max: it.s.Loc.Point}
}

type bucketKey struct {
	floor  int
	bucket int
}

type bucket struct {
	tree *index.RTree
	objs []int // sorted unique object IDs with samples in this bucket
}

// TrajectoryIndex answers spatio-temporal queries over a fixed set of raw
// trajectory samples. Build it once with NewTrajectoryIndex; it is safe for
// concurrent reads.
type TrajectoryIndex struct {
	opts    Options
	series  map[int][]trajectory.Sample // per object, time-sorted
	buckets map[bucketKey]*bucket
	floors  []int // sorted distinct floors
	objects []int // sorted distinct object IDs
	minT    float64
	maxT    float64
	bounds  geom.BBox // tight bbox over all sample locations
}

// NewTrajectoryIndex builds the index over samples. The input slice is not
// retained or mutated; samples that tie on (object, time) keep their input
// order in every answer.
func NewTrajectoryIndex(samples []trajectory.Sample, opts Options) *TrajectoryIndex {
	ix := &TrajectoryIndex{
		opts:    opts.withDefaults(),
		series:  make(map[int][]trajectory.Sample),
		buckets: make(map[bucketKey]*bucket),
		minT:    math.Inf(1),
		maxT:    math.Inf(-1),
		bounds: geom.BBox{
			Min: geom.Pt(math.Inf(1), math.Inf(1)),
			Max: geom.Pt(math.Inf(-1), math.Inf(-1)),
		},
	}
	perBucket := make(map[bucketKey][]index.Item)
	floorSet := make(map[int]bool)
	for seq, s := range samples {
		ix.series[s.ObjID] = append(ix.series[s.ObjID], s)
		k := bucketKey{floor: s.Loc.Floor, bucket: ix.bucketOf(s.T)}
		perBucket[k] = append(perBucket[k], &sampleItem{s: s, seq: seq})
		floorSet[s.Loc.Floor] = true
		ix.minT = math.Min(ix.minT, s.T)
		ix.maxT = math.Max(ix.maxT, s.T)
		p := s.Loc.Point
		ix.bounds.Min = geom.Pt(math.Min(ix.bounds.Min.X, p.X), math.Min(ix.bounds.Min.Y, p.Y))
		ix.bounds.Max = geom.Pt(math.Max(ix.bounds.Max.X, p.X), math.Max(ix.bounds.Max.Y, p.Y))
	}
	for id, ser := range ix.series {
		sort.SliceStable(ser, func(i, j int) bool { return ser[i].T < ser[j].T })
		ix.objects = append(ix.objects, id)
	}
	sort.Ints(ix.objects)
	for k, items := range perBucket {
		bk := &bucket{tree: index.BulkLoad(items)}
		seen := make(map[int]bool)
		for _, it := range items {
			seen[it.(*sampleItem).s.ObjID] = true
		}
		bk.objs = sortedKeys(seen)
		ix.buckets[k] = bk
	}
	ix.floors = sortedKeys(floorSet)
	return ix
}

func (ix *TrajectoryIndex) bucketOf(t float64) int {
	return int(math.Floor(t / ix.opts.BucketWidth))
}

// clampBuckets converts a time window to the inclusive bucket range that can
// hold data, clamped to the indexed time span so unbounded windows (0, +Inf,
// 1e18, ...) iterate only over real buckets. ok is false when the window
// misses the span entirely or the index is empty.
func (ix *TrajectoryIndex) clampBuckets(t0, t1 float64) (b0, b1 int, ok bool) {
	if len(ix.objects) == 0 || t1 < t0 || t1 < ix.minT || t0 > ix.maxT {
		return 0, 0, false
	}
	return ix.bucketOf(math.Max(t0, ix.minT)), ix.bucketOf(math.Min(t1, ix.maxT)), true
}

// sortedKeys returns the keys of an int-keyed map, sorted.
func sortedKeys[V any](set map[int]V) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Len returns the number of indexed samples.
func (ix *TrajectoryIndex) Len() int {
	n := 0
	for _, ser := range ix.series {
		n += len(ser)
	}
	return n
}

// Objects returns the indexed object IDs, sorted.
func (ix *TrajectoryIndex) Objects() []int {
	out := make([]int, len(ix.objects))
	copy(out, ix.objects)
	return out
}

// Floors returns the distinct floors with indexed samples, sorted.
func (ix *TrajectoryIndex) Floors() []int {
	out := make([]int, len(ix.floors))
	copy(out, ix.floors)
	return out
}

// Bounds returns the tight bounding box over every indexed sample's
// location; ok is false for an empty index. Workload generators use it to
// draw spatial query parameters that actually intersect the data.
func (ix *TrajectoryIndex) Bounds() (geom.BBox, bool) {
	if len(ix.objects) == 0 {
		return geom.BBox{}, false
	}
	return ix.bounds, true
}

// TimeSpan returns the [min, max] sample times; ok is false for an empty
// index.
func (ix *TrajectoryIndex) TimeSpan() (t0, t1 float64, ok bool) {
	if len(ix.objects) == 0 {
		return 0, 0, false
	}
	return ix.minT, ix.maxT, true
}

// candidateObjects returns the sorted unique object IDs with samples on floor
// (any floor when floor < 0) during [t0, t1], using bucket membership only —
// a superset of the objects actually observed in the window.
func (ix *TrajectoryIndex) candidateObjects(floor int, t0, t1 float64) []int {
	b0, b1, ok := ix.clampBuckets(t0, t1)
	if !ok {
		return nil
	}
	seen := make(map[int]bool)
	floors := ix.floors
	if floor >= 0 {
		floors = []int{floor}
	}
	for _, fl := range floors {
		for b := b0; b <= b1; b++ {
			bk, ok := ix.buckets[bucketKey{floor: fl, bucket: b}]
			if !ok {
				continue
			}
			for _, id := range bk.objs {
				seen[id] = true
			}
		}
	}
	return sortedKeys(seen)
}

// interpolate returns the object's location at instant t: it finds the
// samples bracketing t in the object's series and hands them to
// trajectory.InterpolateAt, which holds the arithmetic (linear between the
// two, snapping across gaps wider than MaxGap and across floor changes). It
// reports false when the object has no sample within MaxGap of t.
func (ix *TrajectoryIndex) interpolate(objID int, t float64) (model.Location, bool) {
	ser := ix.series[objID]
	i := sort.Search(len(ser), func(i int) bool { return ser[i].T >= t })
	var prev, next *trajectory.Sample
	if i > 0 {
		prev = &ser[i-1]
	}
	if i < len(ser) {
		next = &ser[i]
	}
	return trajectory.InterpolateAt(prev, next, t, ix.opts.MaxGap)
}

// PositionAt returns the object's (possibly interpolated) location at instant
// t, and false when the object is unobserved around t.
func (ix *TrajectoryIndex) PositionAt(objID int, t float64) (model.Location, bool) {
	return ix.interpolate(objID, t)
}
