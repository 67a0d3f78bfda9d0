package trajectory

import (
	"vita/internal/geom"
	"vita/internal/model"
)

// InterpolateAt returns an object's location at instant t from the samples
// bracketing it: prev is the object's last sample with T < t, next its first
// with T >= t, either nil when there is none. The position is interpolated
// linearly between the two. It reports false when neither sample lies within
// maxGap of t. When the observation gap between the two is wider than maxGap
// the position snaps to whichever endpoint is within maxGap; when they lie on
// different floors (a staircase transition) or either has no point, the
// temporally nearer sample's location is returned verbatim rather than
// interpolating across them.
//
// This is the one copy of the arithmetic behind every instant query — the
// served plans (internal/plan's SnapshotAt) and the brute-force oracle that
// checks them both call it, so their answers agree to the last bit.
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
	if a.Loc.Floor != b.Loc.Floor || !a.Loc.HasPoint || !b.Loc.HasPoint {
		if t-a.T <= b.T-t {
			return a.Loc, true
		}
		return b.Loc, true
	}
	if b.T == a.T {
		return b.Loc, true
	}
	f := (t - a.T) / (b.T - a.T)
	p := geom.Pt(
		a.Loc.Point.X+f*(b.Loc.Point.X-a.Loc.Point.X),
		a.Loc.Point.Y+f*(b.Loc.Point.Y-a.Loc.Point.Y),
	)
	// Attribute the partition of the temporally nearer sample; the segment
	// may cross a partition boundary but the endpoints are ground truth.
	loc := a.Loc
	if b.T-t < t-a.T {
		loc = b.Loc
	}
	return model.At(loc.Building, loc.Floor, loc.Partition, p), true
}
