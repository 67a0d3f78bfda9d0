package plan

import (
	"math"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// batchCols is the owned output scratch of a materializing operator: a
// trajectory batch plus (when the operator produces one) a Val column,
// reused across Next calls.
type batchCols struct {
	traj   colstore.TrajectoryBatch
	val    []float64
	useVal bool
	out    Batch
}

func (bc *batchCols) reset(useVal bool) {
	bc.traj.Reset()
	bc.val = bc.val[:0]
	bc.useVal = useVal
}

func (bc *batchCols) appendRow(s trajectory.Sample, val float64) {
	bc.traj.Append(s)
	if bc.useVal {
		bc.val = append(bc.val, val)
	}
}

// appendBatch bulk-appends every row of in, column by column. Rows of
// batches that carry no Val column read as 0 once any batch brings one.
func (bc *batchCols) appendBatch(in *Batch) {
	if in.Val != nil {
		bc.useVal = true
		bc.padVal()
		bc.val = append(bc.val, in.Val[:min(len(in.Val), in.Len())]...)
	}
	bc.traj.AppendRows(in.Traj, 0, in.Traj.Len())
	if bc.useVal {
		bc.padVal()
	}
}

// padVal zero-extends the Val column to the trajectory columns' length.
func (bc *batchCols) padVal() {
	bc.val = append(bc.val, make([]float64, bc.traj.Len()-len(bc.val))...)
}

func (bc *batchCols) len() int { return bc.traj.Len() }

func (bc *batchCols) batch() *Batch {
	bc.out.Traj = &bc.traj
	if bc.useVal {
		bc.out.Val = bc.val
	} else {
		bc.out.Val = nil
	}
	return &bc.out
}

// --- Scan ---

// scanOp is the leaf: it opens its Source lazily on first Next with the
// planner's pushed-down predicate and forwards the cursor's batches.
type scanOp struct {
	src    Source
	pred   colstore.Predicate
	cur    storage.TrajectoryCursor
	opened bool
	b      Batch
	stats  colstore.ScanStats
	err    error
}

func newScanOp(src Source, pred colstore.Predicate) *scanOp {
	return &scanOp{src: src, pred: pred}
}

func (s *scanOp) Next() bool {
	if s.err != nil {
		return false
	}
	if !s.opened {
		s.opened = true
		cur, err := s.src.Open(s.pred)
		if err != nil {
			s.err = err
			return false
		}
		s.cur = cur
	}
	if s.cur == nil {
		return false
	}
	if !s.cur.Next() {
		s.err = s.cur.Err()
		return false
	}
	s.b.Traj = s.cur.Batch()
	s.b.Val = nil
	return true
}

func (s *scanOp) Batch() *Batch { return &s.b }
func (s *scanOp) Err() error    { return s.err }

func (s *scanOp) Stats() colstore.ScanStats {
	if s.cur != nil {
		return s.cur.Stats()
	}
	return s.stats
}

func (s *scanOp) Close() error {
	if s.cur != nil {
		s.stats = s.cur.Stats()
		if cerr := s.cur.Close(); s.err == nil {
			s.err = cerr
		}
		s.cur = nil
	}
	return s.err
}

// --- Filter (+ fused Project) ---

// filterProjectOp runs residual row predicates and column projection in one
// pass over each batch — the planner's filter+project fusion. Either half
// may be absent (nil preds = pure project, zero keep mask = pure filter).
type filterProjectOp struct {
	child Operator
	preds []Pred
	keep  colMask // 0 = keep all columns
	bc    batchCols
}

func newFilterProjectOp(child Operator, preds []Pred, project []Col) Operator {
	return &filterProjectOp{child: child, preds: preds, keep: maskOf(project)}
}

// projectRow zeroes the dropped columns of a materialized row. A point
// survives only if both coordinate columns are kept.
func (f *filterProjectOp) projectRow(s trajectory.Sample) trajectory.Sample {
	if f.keep == 0 {
		return s
	}
	var out trajectory.Sample
	if f.keep.has(ColObjID) {
		out.ObjID = s.ObjID
	}
	if f.keep.has(ColBuilding) {
		out.Loc.Building = s.Loc.Building
	}
	if f.keep.has(ColFloor) {
		out.Loc.Floor = s.Loc.Floor
	}
	if f.keep.has(ColPartition) {
		out.Loc.Partition = s.Loc.Partition
	}
	if f.keep.has(ColX) && f.keep.has(ColY) {
		out.Loc.Point = s.Loc.Point
		out.Loc.HasPoint = s.Loc.HasPoint
	}
	if f.keep.has(ColT) {
		out.T = s.T
	}
	return out
}

func (f *filterProjectOp) Next() bool {
	for f.child.Next() {
		in := f.child.Batch()
		useVal := in.Val != nil && f.keep.has(ColVal)
		f.bc.reset(useVal)
	rows:
		for i := 0; i < in.Len(); i++ {
			s := in.Traj.Row(i)
			for _, p := range f.preds {
				if !p.match(s) {
					continue rows
				}
			}
			var v float64
			if useVal && i < len(in.Val) {
				v = in.Val[i]
			}
			f.bc.appendRow(f.projectRow(s), v)
		}
		if f.bc.len() > 0 {
			return true
		}
	}
	return false
}

func (f *filterProjectOp) Batch() *Batch             { return f.bc.batch() }
func (f *filterProjectOp) Err() error                { return f.child.Err() }
func (f *filterProjectOp) Stats() colstore.ScanStats { return f.child.Stats() }
func (f *filterProjectOp) Close() error              { return f.child.Close() }

// --- TimeBucket ---

// timeBucketOp rewrites T to the start of its bucket. Only the T column is
// copied; every other column aliases the child's batch (operators never
// mutate input, so sharing is safe).
type timeBucketOp struct {
	child Operator
	width float64
	t     []float64
	traj  colstore.TrajectoryBatch
	out   Batch
}

func newTimeBucketOp(child Operator, width float64) Operator {
	return &timeBucketOp{child: child, width: width}
}

func (tb *timeBucketOp) Next() bool {
	if !tb.child.Next() {
		return false
	}
	in := tb.child.Batch()
	tb.t = tb.t[:0]
	for _, t := range in.Traj.T {
		tb.t = append(tb.t, math.Floor(t/tb.width)*tb.width)
	}
	tb.traj = *in.Traj
	tb.traj.T = tb.t
	tb.out.Traj = &tb.traj
	tb.out.Val = in.Val
	return true
}

func (tb *timeBucketOp) Batch() *Batch             { return &tb.out }
func (tb *timeBucketOp) Err() error                { return tb.child.Err() }
func (tb *timeBucketOp) Stats() colstore.ScanStats { return tb.child.Stats() }
func (tb *timeBucketOp) Close() error              { return tb.child.Close() }

// --- Derive ---

// DeriveFunc computes the Val column for one batch: dst is pre-sized to the
// batch's row count and zeroed; the function fills it from the batch's
// columns. Implementations may keep state across calls (batches arrive in
// stream order), but must not mutate the batch.
type DeriveFunc func(dst []float64, b *Batch)

// deriveOp attaches a computed Val column to each batch; the trajectory
// columns pass through by reference.
type deriveOp struct {
	child Operator
	fn    DeriveFunc
	val   []float64
	out   Batch
}

func newDeriveOp(child Operator, fn DeriveFunc) Operator {
	return &deriveOp{child: child, fn: fn}
}

func (d *deriveOp) Next() bool {
	if !d.child.Next() {
		return false
	}
	in := d.child.Batch()
	n := in.Len()
	if cap(d.val) < n {
		d.val = make([]float64, n)
	}
	d.val = d.val[:n]
	for i := range d.val {
		d.val[i] = 0
	}
	d.fn(d.val, in)
	d.out.Traj = in.Traj
	d.out.Val = d.val
	return true
}

func (d *deriveOp) Batch() *Batch             { return &d.out }
func (d *deriveOp) Err() error                { return d.child.Err() }
func (d *deriveOp) Stats() colstore.ScanStats { return d.child.Stats() }
func (d *deriveOp) Close() error              { return d.child.Close() }

// DwellGaps returns a DeriveFunc that assigns each row the seconds since the
// same object's previous sample, when that gap is positive, at most maxGap,
// and spent in the same partition — i.e. the dwell time the row's partition
// earns from the preceding interval. Rows that open a visit (object change,
// partition change, or a gap beyond maxGap) get 0. Requires rows ordered by
// (object, time); compose after OrderBy(Asc(ColObjID), Asc(ColT)).
func DwellGaps(maxGap float64) DeriveFunc {
	var (
		have     bool
		prevObj  int64
		prevPart string
		prevT    float64
	)
	return func(dst []float64, b *Batch) {
		tr := b.Traj
		for i := 0; i < tr.Len(); i++ {
			if have && tr.ObjID[i] == prevObj && tr.Partition[i] == prevPart {
				if dt := tr.T[i] - prevT; dt > 0 && dt <= maxGap {
					dst[i] = dt
				}
			}
			have = true
			prevObj, prevPart, prevT = tr.ObjID[i], tr.Partition[i], tr.T[i]
		}
	}
}

// DistTo returns a DeriveFunc that assigns each row the planar distance from
// its point to p. It reads X and Y as they are: filter out point-less rows
// first (their coordinates are placeholders).
func DistTo(p geom.Point) DeriveFunc {
	return func(dst []float64, b *Batch) {
		for i := range dst {
			dst[i] = p.Dist(geom.Pt(b.Traj.X[i], b.Traj.Y[i]))
		}
	}
}

// --- Limit ---

// limitOp stops after n rows. It never copies: a partial final batch is a
// re-sliced view of the child's batch (slicing shortens the view without
// touching the shared backing arrays).
type limitOp struct {
	child     Operator
	remaining int
	traj      colstore.TrajectoryBatch
	out       Batch
}

func newLimitOp(child Operator, n int) Operator {
	return &limitOp{child: child, remaining: n}
}

func (l *limitOp) Next() bool {
	if l.remaining <= 0 {
		return false
	}
	if !l.child.Next() {
		return false
	}
	in := l.child.Batch()
	n := in.Len()
	if n <= l.remaining {
		l.remaining -= n
		l.out = *in
		return true
	}
	k := l.remaining
	l.remaining = 0
	tr := in.Traj
	l.traj = colstore.TrajectoryBatch{
		ObjID:     tr.ObjID[:k],
		Building:  tr.Building[:k],
		Floor:     tr.Floor[:k],
		Partition: tr.Partition[:k],
		X:         tr.X[:k],
		Y:         tr.Y[:k],
		T:         tr.T[:k],
		HasPoint:  tr.HasPoint[:k],
	}
	l.out.Traj = &l.traj
	if in.Val != nil {
		l.out.Val = in.Val[:min(k, len(in.Val))]
	} else {
		l.out.Val = nil
	}
	return true
}

func (l *limitOp) Batch() *Batch             { return &l.out }
func (l *limitOp) Err() error                { return l.child.Err() }
func (l *limitOp) Stats() colstore.ScanStats { return l.child.Stats() }
func (l *limitOp) Close() error              { return l.child.Close() }
