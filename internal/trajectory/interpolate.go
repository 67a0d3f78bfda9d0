package trajectory

import (
	"math"
	"sort"

	"vita/internal/geom"
	"vita/internal/model"
)

// SeriesAt returns the location at instant t of an object whose samples, in
// time order, are series: InterpolateAt over the two samples bracketing t,
// with no gap limit. Before the first sample it is the first, after the last
// the last; it reports false only for an empty series.
func SeriesAt(series []Sample, t float64) (model.Location, bool) {
	i := sort.Search(len(series), func(i int) bool { return series[i].T >= t })
	var prev, next *Sample
	if i > 0 {
		prev = &series[i-1]
	}
	if i < len(series) {
		next = &series[i]
	}
	return InterpolateAt(prev, next, t, math.Inf(1))
}

// InterpolateAt returns an object's location at instant t from the samples
// bracketing it: prev is the object's last sample with T < t, next its first
// with T >= t, either nil when there is none. The position is interpolated
// linearly between the two. It reports false when neither sample lies within
// maxGap of t. When the observation gap between the two is wider than maxGap
// the position snaps to whichever endpoint is within maxGap; otherwise the
// point and floor are Between's and the partition is the temporally nearer
// sample's, so across floors (or without a point) the nearer sample's
// location comes back verbatim. With maxGap +Inf it clamps to the first
// sample before the series and to the last after it.
//
// The served plans (internal/plan's SnapshotAt), the brute-force oracle that
// checks them and the evaluation of estimates all call it.
func InterpolateAt(prev, next *Sample, t, maxGap float64) (model.Location, bool) {
	switch {
	case prev == nil && next == nil:
		return model.Location{}, false
	case prev == nil:
		if next.T-t > maxGap {
			return model.Location{}, false
		}
		return next.Loc, true
	case next == nil:
		if t-prev.T > maxGap {
			return model.Location{}, false
		}
		return prev.Loc, true
	}
	a, b := prev, next
	if b.T-a.T > maxGap {
		// The observation gap is too wide to trust a straight line; snap to
		// whichever endpoint is within MaxGap, if any.
		if t-a.T <= maxGap {
			return a.Loc, true
		}
		if b.T-t <= maxGap {
			return b.Loc, true
		}
		return model.Location{}, false
	}
	// Attribute the partition of the temporally nearer sample (a on a tie);
	// the segment may cross a partition boundary but the endpoints are
	// ground truth.
	loc := a.Loc
	if b.T-t < t-a.T {
		loc = b.Loc
	}
	loc.Point, loc.Floor = Between(a, b, t)
	return loc, true
}

// Between is the one rule for an object's position between two of its
// consecutive samples a and b, with a.T ≤ t ≤ b.T: the point at t on the
// straight line from a to b, on a's floor. When a and b lie on different
// floors (a staircase transition) or either has no point, it returns the
// temporally nearer sample's point and floor, a's on a tie; when they share
// an instant, b's. Every reader of ground truth — served instants
// (InterpolateAt), the RSSI replay and the evaluation of estimates — comes
// here, so they agree to the last bit.
func Between(a, b *Sample, t float64) (geom.Point, int) {
	if a.Loc.Floor != b.Loc.Floor || !a.Loc.HasPoint || !b.Loc.HasPoint {
		if t-a.T <= b.T-t {
			return a.Loc.Point, a.Loc.Floor
		}
		return b.Loc.Point, b.Loc.Floor
	}
	if b.T == a.T {
		return b.Loc.Point, b.Loc.Floor
	}
	return a.Loc.Point.Lerp(b.Loc.Point, (t-a.T)/(b.T-a.T)), a.Loc.Floor
}
