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
// valid once has says so. bmap and pmap translate the current input batch's
// building and partition codes into ends'.
type snapshotScratch struct {
	slot       map[int64]int32
	obj        []int64
	ends       colstore.TrajectoryBatch
	has        []bool
	bmap, pmap []uint32
	out        batchCols
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
		sc.bmap = sc.ends.Building.Remap(&tr.Building, sc.bmap)
		sc.pmap = sc.ends.Partition.Remap(&tr.Partition, sc.pmap)
		for i, t := range tr.T {
			j, ok := sc.slot[tr.ObjID[i]]
			if !ok {
				j = int32(len(sc.obj))
				sc.slot[tr.ObjID[i]] = j
				sc.obj = append(sc.obj, tr.ObjID[i])
				sc.appendRow(tr, i) // placeholders until has is set
				sc.appendRow(tr, i)
				sc.has = append(sc.has, false, false)
			}
			k, before := 2*int(j), t < at
			if !before {
				k++
			}
			if !sc.has[k] || (before && t >= sc.ends.T[k]) || (!before && t < sc.ends.T[k]) {
				sc.setRow(k, tr, i)
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

// appendRow appends row i of the input batch src to ends.
func (sc *snapshotScratch) appendRow(src *colstore.TrajectoryBatch, i int) {
	e := &sc.ends
	e.ObjID, e.Floor = append(e.ObjID, src.ObjID[i]), append(e.Floor, src.Floor[i])
	e.Building.Code = append(e.Building.Code, sc.bmap[src.Building.Code[i]])
	e.Partition.Code = append(e.Partition.Code, sc.pmap[src.Partition.Code[i]])
	e.X, e.Y, e.T = append(e.X, src.X[i]), append(e.Y, src.Y[i]), append(e.T, src.T[i])
	e.HasPoint = append(e.HasPoint, src.HasPoint[i])
}

// setRow overwrites row k of ends with row i of the input batch src.
func (sc *snapshotScratch) setRow(k int, src *colstore.TrajectoryBatch, i int) {
	e := &sc.ends
	e.ObjID[k], e.Floor[k] = src.ObjID[i], src.Floor[i]
	e.Building.Code[k], e.Partition.Code[k] = sc.bmap[src.Building.Code[i]], sc.pmap[src.Partition.Code[i]]
	e.X[k], e.Y[k], e.T[k], e.HasPoint[k] = src.X[i], src.Y[i], src.T[i], src.HasPoint[i]
}
