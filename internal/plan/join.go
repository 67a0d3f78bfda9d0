package plan

import "vita/internal/colstore"

// joinOp is the hash equi-join. On first Next it drains the build side
// (right) into a groupTable over the join columns — so keys match under
// OrderBy's semantics, as Aggregate's do — collecting each key's build-row
// object IDs in build order. It then streams the probe side (left): each
// probe row is emitted once per matching build row, with Val set to the build
// row's object ID — the shape contact-tracing queries need (who shared my
// partition and time bucket?). Callers that must exclude self-pairs filter
// ObjID != Val downstream. Output rows are gathered from the probe batch
// through a selection vector.
type joinOp struct {
	left       Operator
	right      Operator
	on         []Col
	built      bool
	table      groupTable
	objs       [][]float64 // build-row object IDs per key
	gid, sel   []int32
	rightStats colstore.ScanStats
	rightErr   error
	bc         batchCols
}

func newJoinOp(left, right Operator, on []Col) Operator {
	return &joinOp{left: left, right: right, on: on}
}

// build drains and closes the right side, releasing its resources before
// the probe phase begins.
func (j *joinOp) build() bool {
	j.built = true
	j.table.reset(j.on)
	for j.right.Next() {
		in := j.right.Batch()
		j.gid = j.table.assign(j.gid, in, true)
		for i, g := range j.gid {
			if int(g) == len(j.objs) {
				j.objs = append(j.objs, nil)
			}
			j.objs[g] = append(j.objs[g], float64(in.Traj.ObjID[i]))
		}
	}
	j.rightStats = j.right.Stats()
	j.rightErr = j.right.Close()
	return j.rightErr == nil
}

func (j *joinOp) Next() bool {
	if !j.built && !j.build() {
		return false
	}
	for j.left.Next() {
		in := j.left.Batch()
		j.gid = j.table.assign(j.gid, in, false)
		j.sel = j.sel[:0]
		j.bc.reset(true)
		for i, g := range j.gid {
			if g < 0 {
				continue
			}
			for _, id := range j.objs[g] {
				j.sel = append(j.sel, int32(i))
				j.bc.val = append(j.bc.val, id)
			}
		}
		if len(j.sel) > 0 {
			j.bc.traj.Gather(in.Traj, j.sel)
			return true
		}
	}
	return false
}

func (j *joinOp) Batch() *Batch { return j.bc.batch() }

func (j *joinOp) Err() error {
	if err := j.left.Err(); err != nil {
		return err
	}
	return j.rightErr
}

func (j *joinOp) Stats() colstore.ScanStats {
	if !j.built {
		return j.left.Stats().Add(j.right.Stats())
	}
	return j.left.Stats().Add(j.rightStats)
}

func (j *joinOp) Close() error {
	err := j.left.Close()
	if !j.built {
		// Build never ran; release the right side too.
		j.built = true
		if cerr := j.right.Close(); cerr != nil && j.rightErr == nil {
			j.rightErr = cerr
		}
	}
	if err == nil {
		err = j.rightErr
	}
	return err
}
