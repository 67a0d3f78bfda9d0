package plan

import (
	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/trajectory"
)

// predKind discriminates the structured filter predicates the planner can
// reason about. Structured predicates push down into the scan's block
// predicate (and from there into zone-map pruning); Where predicates are
// opaque and always evaluate as residual row filters.
type predKind int

const (
	predTime predKind = iota
	predFloor
	predBox
	predObj
	predWhere
)

// Pred is one conjunct of a Filter. Build them with TimeBetween, OnFloor,
// InBox, ObjEq, or Where; a Filter with several Preds matches rows
// satisfying all of them.
type Pred struct {
	kind   predKind
	t0, t1 float64
	floor  int
	box    geom.BBox
	obj    int
	where  func(trajectory.Sample) bool
}

// TimeBetween matches rows with t0 <= T <= t1.
func TimeBetween(t0, t1 float64) Pred { return Pred{kind: predTime, t0: t0, t1: t1} }

// OnFloor matches rows on exactly the given floor.
func OnFloor(floor int) Pred { return Pred{kind: predFloor, floor: floor} }

// InBox matches coordinate rows whose point lies in box; symbolic rows
// (no point) never match, mirroring colstore.Predicate box semantics.
func InBox(box geom.BBox) Pred { return Pred{kind: predBox, box: box} }

// ObjEq matches rows of a single object.
func ObjEq(obj int) Pred { return Pred{kind: predObj, obj: obj} }

// Where matches rows for which fn returns true. Opaque to the planner: it
// never pushes down, so use the structured predicates when one fits.
func Where(fn func(trajectory.Sample) bool) Pred { return Pred{kind: predWhere, where: fn} }

// narrow keeps the rows of sel that satisfy the predicate, in one loop, with
// semantics identical to colstore.Predicate.MatchTrajectory for the
// structured kinds — pushing a predicate down must never change which rows
// survive. Only a Where views rows as Samples, and only those still selected.
func (p Pred) narrow(tr *colstore.TrajectoryBatch, sel []int32) []int32 {
	switch p.kind {
	case predTime:
		return keepRows(sel, func(i int32) bool { return tr.T[i] >= p.t0 && tr.T[i] <= p.t1 })
	case predFloor:
		return keepRows(sel, func(i int32) bool { return tr.Floor[i] == int64(p.floor) })
	case predBox:
		return keepRows(sel, func(i int32) bool { return tr.HasPoint[i] && p.box.Contains(geom.Pt(tr.X[i], tr.Y[i])) })
	case predObj:
		return keepRows(sel, func(i int32) bool { return tr.ObjID[i] == int64(p.obj) })
	default:
		return keepRows(sel, func(i int32) bool { return p.where(tr.Row(int(i))) })
	}
}

// keepRows compacts sel in place to the rows ok accepts.
func keepRows(sel []int32, ok func(int32) bool) []int32 {
	k := 0
	for _, i := range sel {
		if ok(i) {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// pushInto attempts to fold the predicate into the scan's block predicate.
// It reports whether the fold succeeded; on false the predicate must remain
// a residual row filter. A structured kind folds only into an unclaimed slot
// (or intersects, for time windows — the conjunction of two windows is a
// window); claimed floor/box/obj slots refuse rather than approximate, so
// pushdown is always exact.
func (p Pred) pushInto(cp *colstore.Predicate) bool {
	switch p.kind {
	case predTime:
		if !cp.HasTime {
			cp.HasTime, cp.T0, cp.T1 = true, p.t0, p.t1
			return true
		}
		// Intersect windows; an empty intersection is fine — the scan
		// just prunes everything.
		if p.t0 > cp.T0 {
			cp.T0 = p.t0
		}
		if p.t1 < cp.T1 {
			cp.T1 = p.t1
		}
		return true
	case predFloor:
		if cp.HasFloor {
			return cp.Floor == p.floor
		}
		cp.HasFloor, cp.Floor = true, p.floor
		return true
	case predBox:
		if cp.HasBox {
			return false
		}
		cp.HasBox, cp.Box = true, p.box
		return true
	case predObj:
		if cp.HasObj {
			return cp.Obj == p.obj
		}
		cp.HasObj, cp.Obj = true, p.obj
		return true
	default:
		return false
	}
}
