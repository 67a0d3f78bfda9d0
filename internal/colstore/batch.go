package colstore

import (
	"slices"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// Column batches are the unit every read path moves: a cursor decodes one
// block at a time into a reusable set of column slices, so a scan over
// millions of rows touches a bounded, reused region of memory and never
// materializes []Sample. Consumers either iterate columns directly (the
// vectorized path) or view single rows through Row, which builds a Sample
// value on the stack.

// Batch is what the generic reader, cursors and merges need of a row kind's
// column batch; *TrajectoryBatch and *RSSIBatch are the two implementations.
type Batch interface {
	// Len returns the number of rows.
	Len() int
	// Bytes approximates the resident footprint: the column elements plus
	// the string columns' dictionaries.
	Bytes() int64
	// Reset truncates to zero rows, keeping column capacity.
	Reset()
}

// RowBatch is a Batch that also hands out its rows as values of the kind's
// row type T (trajectory.Sample, rssi.Measurement) — what a row-at-a-time
// drain of a cursor needs.
type RowBatch[T any] interface {
	Batch
	Row(i int) T
}

// TrajectoryBatch holds one block's worth of decoded trajectory samples in
// column form. The columns share one length; all are valid until the owning
// cursor's next Next or Close. The string columns are dictionary-coded (see
// Strings), so no column holds a pointer per row.
type TrajectoryBatch struct {
	ObjID     []int64
	Building  Strings
	Floor     []int64
	Partition Strings
	X, Y      []float64
	T         []float64
	HasPoint  []bool
}

// Len returns the number of rows in the batch.
func (b *TrajectoryBatch) Len() int { return len(b.ObjID) }

// Row assembles row i as a Sample value. The strings are shared with the
// batch's dictionaries (and remain valid after the batch is reused — strings
// are immutable), so Row allocates nothing.
func (b *TrajectoryBatch) Row(i int) trajectory.Sample {
	return trajectory.Sample{
		ObjID: int(b.ObjID[i]),
		Loc: model.Location{
			Building:  b.Building.At(i),
			Floor:     int(b.Floor[i]),
			Partition: b.Partition.At(i),
			Point:     geom.Pt(b.X[i], b.Y[i]),
			HasPoint:  b.HasPoint[i],
		},
		T: b.T[i],
	}
}

// Reset truncates the batch to zero rows, keeping column capacity.
func (b *TrajectoryBatch) Reset() {
	b.ObjID = b.ObjID[:0]
	b.Building.Reset()
	b.Floor = b.Floor[:0]
	b.Partition.Reset()
	b.X, b.Y, b.T = b.X[:0], b.Y[:0], b.T[:0]
	b.HasPoint = b.HasPoint[:0]
}

// Append appends one sample's fields to the columns (the write-side
// counterpart of Row; used by the CSV batch adapter in internal/storage).
func (b *TrajectoryBatch) Append(s trajectory.Sample) {
	b.ObjID = append(b.ObjID, int64(s.ObjID))
	b.Building.Append(s.Loc.Building)
	b.Floor = append(b.Floor, int64(s.Loc.Floor))
	b.Partition.Append(s.Loc.Partition)
	b.X = append(b.X, s.Loc.Point.X)
	b.Y = append(b.Y, s.Loc.Point.Y)
	b.T = append(b.T, s.T)
	b.HasPoint = append(b.HasPoint, s.Loc.HasPoint)
}

// AppendTo appends every row to dst as Samples and returns it.
func (b *TrajectoryBatch) AppendTo(dst []trajectory.Sample) []trajectory.Sample {
	for i := 0; i < b.Len(); i++ {
		dst = append(dst, b.Row(i))
	}
	return dst
}

// Bytes approximates the batch's resident footprint: the column elements
// plus the two dictionaries. Cache layers use it to account decoded-block
// budgets.
func (b *TrajectoryBatch) Bytes() int64 {
	return int64(b.Len())*(8+8+8+8+8+1) + b.Building.Bytes() + b.Partition.Bytes()
}

// AppendRows bulk-appends rows [lo, hi) of src, one copy per column — how a
// blocking operator buffers its input, and a merge moves a run, without
// touching rows.
func (b *TrajectoryBatch) AppendRows(src *TrajectoryBatch, lo, hi int) {
	b.ObjID = append(b.ObjID, src.ObjID[lo:hi]...)
	b.Building.AppendRows(&src.Building, lo, hi)
	b.Floor = append(b.Floor, src.Floor[lo:hi]...)
	b.Partition.AppendRows(&src.Partition, lo, hi)
	b.X = append(b.X, src.X[lo:hi]...)
	b.Y = append(b.Y, src.Y[lo:hi]...)
	b.T = append(b.T, src.T[lo:hi]...)
	b.HasPoint = append(b.HasPoint, src.HasPoint[lo:hi]...)
}

// Gather overwrites b with the rows of src that idx names, in idx order: one
// pass per column. It serves filter compaction (idx = a selection) and
// reordering (idx = a sort permutation) alike. b may be src itself when idx
// is strictly ascending — the in-place compaction a cursor applies to its own
// scratch batch; otherwise b and src must not share columns.
func (b *TrajectoryBatch) Gather(src *TrajectoryBatch, idx []int32) {
	b.ObjID = gather(b.ObjID, src.ObjID, idx)
	b.Building.Gather(&src.Building, idx)
	b.Floor = gather(b.Floor, src.Floor, idx)
	b.Partition.Gather(&src.Partition, idx)
	b.X = gather(b.X, src.X, idx)
	b.Y = gather(b.Y, src.Y, idx)
	b.T = gather(b.T, src.T, idx)
	b.HasPoint = gather(b.HasPoint, src.HasPoint, idx)
}

// gather returns dst resized to len(idx) with dst[k] = src[idx[k]]. When dst
// aliases src and idx ascends, every read is at or ahead of its write.
func gather[T any](dst, src []T, idx []int32) []T {
	dst = slices.Grow(dst[:0], len(idx))[:len(idx)]
	for k, i := range idx {
		dst[k] = src[i]
	}
	return dst
}

// SelectTrajectory is the columnar form of MatchTrajectory: it returns, in
// sel's storage, the ascending indices of b's rows that satisfy p — one tight
// loop over one column per active constraint, each narrowing the selection
// the previous one left. Row for row it agrees with MatchTrajectory(b.Row(i)).
func (p Predicate) SelectTrajectory(b *TrajectoryBatch, sel []int32) []int32 {
	sel = slices.Grow(sel[:0], b.Len())[:b.Len()]
	for i := range sel {
		sel[i] = int32(i)
	}
	if p.HasTime {
		k := 0
		for _, i := range sel {
			if t := b.T[i]; !(t < p.T0 || t > p.T1) {
				sel[k] = i
				k++
			}
		}
		sel = sel[:k]
	}
	if p.HasObj {
		obj, k := int64(p.Obj), 0
		for _, i := range sel {
			if b.ObjID[i] == obj {
				sel[k] = i
				k++
			}
		}
		sel = sel[:k]
	}
	if p.HasFloor {
		floor, k := int64(p.Floor), 0
		for _, i := range sel {
			if b.Floor[i] == floor {
				sel[k] = i
				k++
			}
		}
		sel = sel[:k]
	}
	if p.HasBox {
		// geom.BBox.Contains, with its Eps tolerance folded into the bounds.
		x0, x1 := p.Box.Min.X-geom.Eps, p.Box.Max.X+geom.Eps
		y0, y1 := p.Box.Min.Y-geom.Eps, p.Box.Max.Y+geom.Eps
		k := 0
		for _, i := range sel {
			if x, y := b.X[i], b.Y[i]; b.HasPoint[i] && x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				sel[k] = i
				k++
			}
		}
		sel = sel[:k]
	}
	return sel
}

// RSSIBatch holds one block's worth of decoded RSSI measurements in column
// form; see TrajectoryBatch for the reuse contract.
type RSSIBatch struct {
	ObjID    []int64
	DeviceID Strings
	RSSI     []float64
	T        []float64
}

// Len returns the number of rows in the batch.
func (b *RSSIBatch) Len() int { return len(b.ObjID) }

// Row assembles row i as a Measurement value without allocating.
func (b *RSSIBatch) Row(i int) rssi.Measurement {
	return rssi.Measurement{
		ObjID:    int(b.ObjID[i]),
		DeviceID: b.DeviceID.At(i),
		RSSI:     b.RSSI[i],
		T:        b.T[i],
	}
}

// Reset truncates the batch to zero rows, keeping column capacity.
func (b *RSSIBatch) Reset() {
	b.ObjID = b.ObjID[:0]
	b.DeviceID.Reset()
	b.RSSI = b.RSSI[:0]
	b.T = b.T[:0]
}

// Append appends one measurement's fields to the columns (the write-side
// counterpart of Row; used by the CSV batch adapter in internal/storage).
func (b *RSSIBatch) Append(m rssi.Measurement) {
	b.ObjID = append(b.ObjID, int64(m.ObjID))
	b.DeviceID.Append(m.DeviceID)
	b.RSSI = append(b.RSSI, m.RSSI)
	b.T = append(b.T, m.T)
}

// AppendRows bulk-appends rows [lo, hi) of src, one copy per column.
func (b *RSSIBatch) AppendRows(src *RSSIBatch, lo, hi int) {
	b.ObjID = append(b.ObjID, src.ObjID[lo:hi]...)
	b.DeviceID.AppendRows(&src.DeviceID, lo, hi)
	b.RSSI = append(b.RSSI, src.RSSI[lo:hi]...)
	b.T = append(b.T, src.T[lo:hi]...)
}

// Bytes approximates the batch's resident footprint.
func (b *RSSIBatch) Bytes() int64 {
	return int64(b.Len())*(8+8+8) + b.DeviceID.Bytes()
}

// filter compacts the batch in place to the rows matching p (time and
// object constraints; floor/box never apply to RSSI rows).
func (b *RSSIBatch) filter(p Predicate) {
	if !p.HasTime && !p.HasObj {
		return
	}
	k := 0
	for i := 0; i < b.Len(); i++ {
		if !p.MatchRSSI(b.Row(i)) {
			continue
		}
		if i != k {
			b.ObjID[k] = b.ObjID[i]
			b.DeviceID.Code[k] = b.DeviceID.Code[i]
			b.RSSI[k], b.T[k] = b.RSSI[i], b.T[i]
		}
		k++
	}
	b.ObjID = b.ObjID[:k]
	b.DeviceID.Code = b.DeviceID.Code[:k]
	b.RSSI = b.RSSI[:k]
	b.T = b.T[:k]
}
