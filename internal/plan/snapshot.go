package plan

import (
	"slices"

	"vita/internal/colstore"
	"vita/internal/trajectory"
)

// newSnapshotAtOp returns the blocking fold behind Plan.SnapshotAt. Draining
// its child it keeps, per object, the latest row before the instant and the
// earliest at or after it — by timestamp, so the answer does not depend on
// the order rows arrive in; rows that tie on time resolve as a stable sort of
// the object's series would (the last of the ties before, the first of those
// after). It emits one interpolated row per observed object, in object
// order; the bracketing rows are column values in pooled scratch, viewed as
// Samples only for InterpolateAt.
func newSnapshotAtOp(child Operator, t, maxGap float64) Operator {
	return &blockingOp[snapshotScratch]{unary: unary{child}, pool: &snapshotPool,
		fold: func(child Operator, sc *snapshotScratch) *Batch { return sc.fold(child, t, maxGap) }}
}

// snapshotScratch is a snapshot's fold: object obj's row before the instant
// is row 2·slot[obj] of ends and its row at or after it the next one, each
// valid once has says so.
type snapshotScratch struct {
	slot map[int64]int32
	obj  []int64
	ends colstore.TrajectoryBatch
	has  []bool
	out  batchCols
}

var snapshotPool pool[snapshotScratch]

func (sc *snapshotScratch) fold(child Operator, at, maxGap float64) *Batch {
	if sc.slot == nil {
		sc.slot = make(map[int64]int32)
	}
	clear(sc.slot)
	sc.obj, sc.has = sc.obj[:0], sc.has[:0]
	sc.ends.Reset()
	for child.Next() {
		tr := child.Batch().Traj
		for i, t := range tr.T {
			j, ok := sc.slot[tr.ObjID[i]]
			if !ok {
				j = int32(len(sc.obj))
				sc.slot[tr.ObjID[i]] = j
				sc.obj = append(sc.obj, tr.ObjID[i])
				sc.ends.AppendRows(tr, i, i+1) // placeholders until has is set
				sc.ends.AppendRows(tr, i, i+1)
				sc.has = append(sc.has, false, false)
			}
			k, before := 2*int(j), t < at
			if !before {
				k++
			}
			if !sc.has[k] || (before && t >= sc.ends.T[k]) || (!before && t < sc.ends.T[k]) {
				setRow(&sc.ends, k, tr, i)
				sc.has[k] = true
			}
		}
	}
	slices.Sort(sc.obj)
	sc.out.reset(false)
	for _, obj := range sc.obj {
		var rows [2]trajectory.Sample
		var ends [2]*trajectory.Sample
		for side := range ends {
			if k := 2*int(sc.slot[obj]) + side; sc.has[k] {
				rows[side] = sc.ends.Row(k)
				ends[side] = &rows[side]
			}
		}
		if loc, ok := trajectory.InterpolateAt(ends[0], ends[1], at, maxGap); ok {
			sc.out.traj.Append(trajectory.Sample{ObjID: int(obj), Loc: loc, T: at})
		}
	}
	return sc.out.batch()
}

// setRow overwrites row k of dst with row i of src.
func setRow(dst *colstore.TrajectoryBatch, k int, src *colstore.TrajectoryBatch, i int) {
	dst.ObjID[k], dst.Building[k], dst.Floor[k], dst.Partition[k] = src.ObjID[i], src.Building[i], src.Floor[i], src.Partition[i]
	dst.X[k], dst.Y[k], dst.T[k], dst.HasPoint[k] = src.X[i], src.Y[i], src.T[i], src.HasPoint[i]
}
