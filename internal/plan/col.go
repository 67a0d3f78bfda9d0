package plan

import "hash/maphash"

// Col names one column of the batch dataflow — the seven trajectory columns
// plus the derived Val column. Operators that take column arguments
// (Project, Aggregate, OrderBy) address columns through these
// constants.
type Col int

const (
	ColObjID Col = iota
	ColBuilding
	ColFloor
	ColPartition
	ColX
	ColY
	ColT
	ColVal
	numCols
)

var colNames = [numCols]string{"obj", "building", "floor", "partition", "x", "y", "t", "val"}

func (c Col) String() string {
	if c < 0 || c >= numCols {
		return "?"
	}
	return colNames[c]
}

// isString reports whether the column holds strings (everything else reads
// and writes as float64 through colNum/setColNum).
func (c Col) isString() bool { return c == ColBuilding || c == ColPartition }

// colMask is a keep-set of columns.
type colMask uint32

const allCols colMask = 1<<numCols - 1

// maskOf is the keep-set naming cols; naming none keeps every column.
func maskOf(cols []Col) colMask {
	if len(cols) == 0 {
		return allCols
	}
	var m colMask
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

func (m colMask) has(c Col) bool { return m&(1<<uint(c)) != 0 }

// floatCol returns float column c (X, Y, T or Val) of b; nil for the integer
// and string columns and for a missing Val.
func floatCol(b *Batch, c Col) []float64 {
	switch c {
	case ColX:
		return b.Traj.X
	case ColY:
		return b.Traj.Y
	case ColT:
		return b.Traj.T
	case ColVal:
		return b.Val
	}
	return nil
}

// colNum returns the numeric view of column c in row i (string columns read
// as 0; a missing Val column reads as 0).
func colNum(b *Batch, c Col, i int) float64 {
	switch c {
	case ColObjID:
		return float64(b.Traj.ObjID[i])
	case ColFloor:
		return float64(b.Traj.Floor[i])
	}
	if col := floatCol(b, c); i < len(col) {
		return col[i]
	}
	return 0
}

// colStr returns the string view of column c in row i ("" for non-string
// columns).
func colStr(b *Batch, c Col, i int) string {
	switch c {
	case ColBuilding:
		return b.Traj.Building[i]
	case ColPartition:
		return b.Traj.Partition[i]
	}
	return ""
}

// numKey is numeric column c of row i as the uint64 OrderBy sorts it by:
// integers as integers, -0 as +0, every NaN one key above every number.
// Aggregate groups rows by these keys, so the two operators agree on which
// values are equal.
func numKey(b *Batch, c Col, i int) uint64 {
	switch c {
	case ColObjID:
		return intKey(b.Traj.ObjID[i])
	case ColFloor:
		return intKey(b.Traj.Floor[i])
	}
	return floatKey(colNum(b, c, i))
}

// sameKey reports whether row i of a and row j of b agree on every column of
// cols: strings byte for byte, numbers by numKey.
func sameKey(cols []Col, a *Batch, i int, b *Batch, j int) bool {
	for _, c := range cols {
		if c.isString() {
			if colStr(a, c, i) != colStr(b, c, j) {
				return false
			}
		} else if numKey(a, c, i) != numKey(b, c, j) {
			return false
		}
	}
	return true
}

var hashSeed = maphash.MakeSeed()

// hashKey hashes row i's values in cols; rows sameKey calls equal hash
// equal.
func hashKey(cols []Col, b *Batch, i int) uint64 {
	var h uint64
	for _, c := range cols {
		var k uint64
		if c.isString() {
			k = maphash.String(hashSeed, colStr(b, c, i))
		} else {
			k = numKey(b, c, i)
		}
		h = (h ^ k) * 0x9e3779b97f4a7c15
	}
	return h
}

// setColNum writes v into numeric column c of row i of a scratch batch the
// operator owns (aggregate destinations; a Val destination needs useVal).
func setColNum(tb *batchCols, c Col, i int, v float64) {
	switch c {
	case ColObjID:
		tb.traj.ObjID[i] = int64(v)
	case ColFloor:
		tb.traj.Floor[i] = int64(v)
	default:
		floatCol(tb.batch(), c)[i] = v
	}
}
