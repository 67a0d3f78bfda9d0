package plan

import (
	"vita/internal/colstore"
)

// joinOp is the hash equi-join. On first Next it drains the build side
// (right) into a hash table keyed by the join columns, then streams the
// probe side (left): each probe row is emitted once per matching build row,
// with Val set to the build row's object ID — the shape contact-tracing
// queries need (who shared my partition and time bucket?). Callers that
// must exclude self-pairs filter ObjID != Val downstream.
type joinOp struct {
	left       Operator
	right      Operator
	on         []Col
	built      bool
	table      map[string][]float64
	rightStats colstore.ScanStats
	rightErr   error
	bc         batchCols
	keyBuf     []byte
}

func newJoinOp(left, right Operator, on []Col) Operator {
	return &joinOp{left: left, right: right, on: on}
}

func (j *joinOp) key(b *Batch, i int) []byte {
	j.keyBuf = j.keyBuf[:0]
	for _, c := range j.on {
		j.keyBuf = appendColKey(j.keyBuf, b, c, i)
	}
	return j.keyBuf
}

// build drains and closes the right side, releasing its resources before
// the probe phase begins.
func (j *joinOp) build() bool {
	j.built = true
	j.table = make(map[string][]float64)
	for j.right.Next() {
		in := j.right.Batch()
		for i := 0; i < in.Len(); i++ {
			k := string(j.key(in, i))
			j.table[k] = append(j.table[k], float64(in.Traj.ObjID[i]))
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
		j.bc.reset(true)
		for i := 0; i < in.Len(); i++ {
			matches := j.table[string(j.key(in, i))]
			if len(matches) == 0 {
				continue
			}
			s := in.Traj.Row(i)
			for _, objID := range matches {
				j.bc.appendRow(s, objID)
			}
		}
		if j.bc.len() > 0 {
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
