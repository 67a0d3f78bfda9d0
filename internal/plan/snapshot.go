package plan

import (
	"cmp"
	"slices"

	"vita/internal/colstore"
	"vita/internal/trajectory"
)

// snapshotAtOp is the blocking fold behind Plan.SnapshotAt. Draining its
// child it keeps, per object, the latest row before the instant and the
// earliest at or after it — by timestamp, so the answer does not depend on
// the order rows arrive in; rows that tie on time resolve as a stable sort of
// the object's series would (the last of the ties before, the first of those
// after). It then emits one interpolated row per observed object.
type snapshotAtOp struct {
	child  Operator
	t      float64
	maxGap float64
	done   bool
	bc     batchCols
}

// bracket holds one object's rows either side of the instant.
type bracket struct {
	obj              int64
	prev, next       trajectory.Sample
	hasPrev, hasNext bool
}

func newSnapshotAtOp(child Operator, t, maxGap float64) Operator {
	return &snapshotAtOp{child: child, t: t, maxGap: maxGap}
}

func (s *snapshotAtOp) Next() bool {
	if s.done {
		return false
	}
	s.done = true
	slot := make(map[int64]int) // object -> index into brs
	var brs []bracket
	for s.child.Next() {
		tr := s.child.Batch().Traj
		for i, t := range tr.T {
			j, ok := slot[tr.ObjID[i]]
			if !ok {
				j = len(brs)
				slot[tr.ObjID[i]] = j
				brs = append(brs, bracket{obj: tr.ObjID[i]})
			}
			br := &brs[j]
			if t < s.t {
				if !br.hasPrev || t >= br.prev.T {
					br.prev, br.hasPrev = tr.Row(i), true
				}
			} else if !br.hasNext || t < br.next.T {
				br.next, br.hasNext = tr.Row(i), true
			}
		}
	}
	if s.child.Err() != nil {
		return false
	}
	slices.SortFunc(brs, func(a, b bracket) int { return cmp.Compare(a.obj, b.obj) })
	s.bc.reset(false)
	for i := range brs {
		br := &brs[i]
		var prev, next *trajectory.Sample
		if br.hasPrev {
			prev = &br.prev
		}
		if br.hasNext {
			next = &br.next
		}
		if loc, ok := trajectory.InterpolateAt(prev, next, s.t, s.maxGap); ok {
			s.bc.appendRow(trajectory.Sample{ObjID: int(br.obj), Loc: loc, T: s.t}, 0)
		}
	}
	return s.bc.len() > 0
}

func (s *snapshotAtOp) Batch() *Batch             { return s.bc.batch() }
func (s *snapshotAtOp) Err() error                { return s.child.Err() }
func (s *snapshotAtOp) Stats() colstore.ScanStats { return s.child.Stats() }
func (s *snapshotAtOp) Close() error              { return s.child.Close() }
