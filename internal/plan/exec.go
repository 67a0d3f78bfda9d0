package plan

import (
	"math"
	"slices"
	"sync"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/storage"
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

// appendRange bulk-appends rows [lo, hi) of in, column by column. Rows of
// batches that carry no Val column read as 0 once any batch brings one.
func (bc *batchCols) appendRange(in *Batch, lo, hi int) {
	if in.Val != nil {
		bc.useVal = true
		bc.padVal()
		bc.val = append(bc.val, in.Val[min(lo, len(in.Val)):min(hi, len(in.Val))]...)
	}
	bc.traj.AppendRows(in.Traj, lo, hi)
	if bc.useVal {
		bc.padVal()
	}
}

// gather overwrites bc with the rows of src that idx names, in idx order (see
// colstore.TrajectoryBatch.Gather).
func (bc *batchCols) gather(src *Batch, idx []int32) {
	bc.reset(src.Val != nil)
	bc.traj.Gather(src.Traj, idx)
	if bc.useVal {
		for _, i := range idx {
			bc.val = append(bc.val, colNum(src, ColVal, int(i)))
		}
	}
}

// zeroCols clears every column keep does not name. HasPoint survives only
// with both coordinates.
func (bc *batchCols) zeroCols(keep colMask) {
	t := &bc.traj
	zeroUnless(keep.has(ColObjID), t.ObjID)
	zeroUnless(keep.has(ColBuilding), t.Building)
	zeroUnless(keep.has(ColFloor), t.Floor)
	zeroUnless(keep.has(ColPartition), t.Partition)
	zeroUnless(keep.has(ColX), t.X)
	zeroUnless(keep.has(ColY), t.Y)
	zeroUnless(keep.has(ColX) && keep.has(ColY), t.HasPoint)
	zeroUnless(keep.has(ColT), t.T)
	zeroUnless(keep.has(ColVal), bc.val)
}

func zeroUnless[T any](keep bool, col []T) {
	if !keep {
		clear(col)
	}
}

// padVal zero-extends the Val column to the trajectory columns' length.
func (bc *batchCols) padVal() {
	bc.val = append(bc.val, make([]float64, bc.traj.Len()-len(bc.val))...)
}

func (bc *batchCols) len() int { return bc.traj.Len() }

func (bc *batchCols) batch() *Batch {
	bc.out = Batch{Traj: &bc.traj}
	if bc.useVal {
		bc.out.Val = bc.val
	}
	return &bc.out
}

// pool recycles one kind of operator scratch across plans: an operator takes
// one on its first Next and gives it back on Close, so a steady stream of
// queries allocates nothing that grows with the row count.
type pool[T any] struct{ p sync.Pool }

func (p *pool[T]) get() *T {
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// put gives *v back, if the operator holds one, and forgets it.
func (p *pool[T]) put(v **T) {
	if *v != nil {
		p.p.Put(*v)
		*v = nil
	}
}

// unary is the child of a one-input operator, and the Err, Stats and Close
// that only pass through to it.
type unary struct{ child Operator }

func (u unary) Err() error                { return u.child.Err() }
func (u unary) Stats() colstore.ScanStats { return u.child.Stats() }
func (u unary) Close() error              { return u.child.Close() }

// blockingOp is the shell of a blocking operator (OrderBy, Aggregate,
// SnapshotAt): on the first Next it takes scratch S from its pool and runs
// fold, which drains the child and returns the one output batch (nil or empty
// for none); Close gives the scratch back.
type blockingOp[S any] struct {
	unary
	pool *pool[S]
	fold func(child Operator, sc *S) *Batch
	done bool
	sc   *S // held from the first Next until Close
	out  Batch
}

func (o *blockingOp[S]) Next() bool {
	if o.done {
		return false
	}
	o.done = true
	o.sc = o.pool.get()
	b := o.fold(o.child, o.sc)
	if o.child.Err() != nil || b == nil || b.Len() == 0 {
		return false
	}
	o.out = *b
	return true
}

func (o *blockingOp[S]) Batch() *Batch { return &o.out }

func (o *blockingOp[S]) Close() error {
	o.out = Batch{}
	o.pool.put(&o.sc)
	return o.child.Close()
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
// may be absent (nil preds = pure project, every column kept = pure filter).
// Each predicate narrows a selection vector; the survivors are gathered once
// and the dropped columns zeroed. A batch that loses no row and no column
// passes through by reference.
type filterProjectOp struct {
	unary
	preds []Pred
	keep  colMask
	sel   []int32
	bc    batchCols
	out   *Batch
}

func newFilterProjectOp(child Operator, preds []Pred, project []Col) Operator {
	keep := maskOf(project)
	if !keep.has(ColX) || !keep.has(ColY) {
		keep &^= 1<<ColX | 1<<ColY // a point survives only whole
	}
	return &filterProjectOp{unary: unary{child}, preds: preds, keep: keep}
}

func (f *filterProjectOp) Next() bool {
	for f.child.Next() {
		in := f.child.Batch()
		f.sel = slices.Grow(f.sel[:0], in.Len())[:in.Len()]
		for i := range f.sel {
			f.sel[i] = int32(i)
		}
		for _, p := range f.preds {
			f.sel = p.narrow(in.Traj, f.sel)
		}
		switch {
		case len(f.sel) == 0:
			continue
		case len(f.sel) == in.Len() && f.keep == allCols:
			f.out = in
		default:
			f.bc.gather(in, f.sel)
			f.bc.useVal = f.bc.useVal && f.keep.has(ColVal)
			f.bc.zeroCols(f.keep)
			f.out = f.bc.batch()
		}
		return true
	}
	return false
}

func (f *filterProjectOp) Batch() *Batch { return f.out }

// --- TimeBucket ---

// timeBucketOp rewrites T to the start of its bucket. Only the T column is
// copied; every other column aliases the child's batch (operators never
// mutate input, so sharing is safe).
type timeBucketOp struct {
	unary
	width float64
	t     []float64
	traj  colstore.TrajectoryBatch
	out   Batch
}

func newTimeBucketOp(child Operator, width float64) Operator {
	return &timeBucketOp{unary: unary{child}, width: width}
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
	tb.out = Batch{Traj: &tb.traj, Val: in.Val}
	return true
}

func (tb *timeBucketOp) Batch() *Batch { return &tb.out }

// --- Derive ---

// DeriveFunc computes the Val column for one batch: dst is pre-sized to the
// batch's row count and zeroed; the function fills it from the batch's
// columns. Implementations may keep state across calls (batches arrive in
// stream order), but must not mutate the batch.
type DeriveFunc func(dst []float64, b *Batch)

// deriveOp attaches a computed Val column to each batch; the trajectory
// columns pass through by reference. The column is pooled scratch.
type deriveOp struct {
	unary
	fn  DeriveFunc
	val *[]float64 // held from the first Next until Close
	out Batch
}

var derivePool pool[[]float64]

func newDeriveOp(child Operator, fn DeriveFunc) Operator {
	return &deriveOp{unary: unary{child}, fn: fn}
}

func (d *deriveOp) Next() bool {
	if !d.child.Next() {
		return false
	}
	in := d.child.Batch()
	if d.val == nil {
		d.val = derivePool.get()
	}
	val := slices.Grow((*d.val)[:0], in.Len())[:in.Len()]
	clear(val)
	d.fn(val, in)
	*d.val = val
	d.out = Batch{Traj: in.Traj, Val: val}
	return true
}

func (d *deriveOp) Batch() *Batch { return &d.out }

func (d *deriveOp) Close() error {
	d.out = Batch{}
	derivePool.put(&d.val)
	return d.child.Close()
}

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
	unary
	remaining int
	traj      colstore.TrajectoryBatch
	out       Batch
}

func newLimitOp(child Operator, n int) Operator {
	return &limitOp{unary: unary{child}, remaining: n}
}

func (l *limitOp) Next() bool {
	if l.remaining <= 0 || !l.child.Next() {
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
	l.out = Batch{Traj: &l.traj}
	if in.Val != nil {
		l.out.Val = in.Val[:min(k, len(in.Val))]
	}
	return true
}

func (l *limitOp) Batch() *Batch { return &l.out }
