package colstore

import (
	"fmt"
	"sync"
)

// Cursor is the one scan path over a VTB file: the caller pulls one decoded
// column batch per surviving block and iterates columns (or views rows through
// Batch().Row). Blocks whose zone maps rule the predicate out are skipped
// without being read; the rest are filtered to the matching rows. The cursor
// owns one pooled decode scratch for its whole lifetime, so a steady-state
// scan performs no per-block allocations at all — the batch the caller sees is
// the scratch's, rewritten in place by every Next.
//
//	cur := r.Cursor(pred)
//	defer cur.Close()
//	for cur.Next() {
//		b := cur.Batch()
//		for i := 0; i < b.Len(); i++ { ... b.T[i], b.X[i], b.Y[i] ... }
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Obtain one from Reader.Cursor. Not safe for concurrent use (open one cursor
// per goroutine; the underlying reader supports any number).
type Cursor[B Batch] struct {
	r      *Reader[B]
	pred   Predicate
	sc     *scratch[B]
	next   int
	stats  ScanStats
	peak   int64
	err    error
	closed bool
}

// TrajectoryCursor and RSSICursor are the two instantiations of Cursor.
type (
	TrajectoryCursor = Cursor[*TrajectoryBatch]
	RSSICursor       = Cursor[*RSSIBatch]
)

// kindOps is what genuinely differs between the two row kinds on the read
// path; Reader and Cursor are written once against it.
type kindOps[B Batch] struct {
	// spatial says the kind's rows carry a floor and a point. Where they do
	// not (RSSI), floor and box constraints neither prune blocks nor filter
	// rows.
	spatial  bool
	newBatch func() B
	// decode rewrites b with the rows of one raw block payload.
	decode func(raw []byte, b B, sc *decodeScratch) error
	// filter narrows a freshly decoded block in place to the rows matching p.
	filter func(p Predicate, zm ZoneMap, b B, sc *decodeScratch)
	pool   sync.Pool // of *scratch[B]
}

var (
	trajectoryOps = kindOps[*TrajectoryBatch]{
		spatial:  true,
		newBatch: func() *TrajectoryBatch { return new(TrajectoryBatch) },
		decode:   decodeTrajectoryBatch,
		filter:   filterTrajectoryBlock,
	}
	rssiOps = kindOps[*RSSIBatch]{
		newBatch: func() *RSSIBatch { return new(RSSIBatch) },
		decode:   decodeRSSIBatch,
		filter:   func(p Predicate, _ ZoneMap, b *RSSIBatch, _ *decodeScratch) { b.filter(p) },
	}
)

// filterTrajectoryBlock skips the select kernel when the zone map proves the
// whole block matches, and the gather when every row turns out to.
func filterTrajectoryBlock(p Predicate, zm ZoneMap, b *TrajectoryBatch, sc *decodeScratch) {
	if p.CoversBlock(zm) {
		return
	}
	sc.sel = p.SelectTrajectory(b, sc.sel)
	if len(sc.sel) < b.Len() {
		b.Gather(b, sc.sel)
	}
}

// getScratch checks a decode scratch (with its decode-target batch) out of
// the kind's pool; return it with k.pool.Put.
func (k *kindOps[B]) getScratch() *scratch[B] {
	if sc, ok := k.pool.Get().(*scratch[B]); ok {
		return sc
	}
	return &scratch[B]{decodeScratch: newDecodeScratch(), batch: k.newBatch()}
}

// Cursor starts a batch scan of the rows matching pred, in file order. (It
// stays small enough to inline, so a cursor that does not outlive its caller
// costs no allocation.)
func (r *Reader[B]) Cursor(pred Predicate) *Cursor[B] {
	return &Cursor[B]{
		r:    r,
		pred: pred,
		sc:   r.ops.getScratch(),
	}
}

// Next advances to the next non-empty batch of matching rows, reporting
// whether one is available. It returns false at end of file, on error (see
// Err), or after Close.
func (c *Cursor[B]) Next() bool {
	if c.err != nil || c.closed {
		return false
	}
	if !c.r.ops.spatial {
		// Dropped here, not in Reader.Cursor, which has no inlining budget
		// left for it.
		c.pred.HasFloor, c.pred.HasBox = false, false
	}
	b, sc := c.sc.batch, &c.sc.decodeScratch
	for c.next < len(c.r.zones) {
		i := c.next
		c.next++
		zm := c.r.zones[i]
		if c.pred.SkipBlock(zm) {
			c.stats.BlocksPruned++
			continue
		}
		c.stats.BlocksScanned++
		raw, err := c.r.blockBytes(i, sc)
		if err != nil {
			c.err = err
			return false
		}
		if err := c.r.ops.decode(raw, b, sc); err != nil {
			c.err = fmt.Errorf("block %d: %w", i, err)
			return false
		}
		c.stats.RowsScanned += b.Len()
		// Peak is measured before filtering: the full decoded block is what
		// was transiently resident, however few rows survive the predicate.
		c.peak = max(c.peak, b.Bytes())
		c.r.ops.filter(c.pred, zm, b, sc)
		c.stats.RowsMatched += b.Len()
		if b.Len() > 0 {
			return true
		}
		// The zone map matched but no row did; pull the next block.
	}
	return false
}

// Batch returns the current batch. It is valid only until the next call to
// Next or Close — copy out (AppendTo) anything that must outlive it.
func (c *Cursor[B]) Batch() B { return c.sc.batch }

// Err returns the first error the cursor hit, if any.
func (c *Cursor[B]) Err() error { return c.err }

// Stats returns the scan statistics accumulated so far: every block of the
// file is counted pruned or scanned once Next has returned false.
func (c *Cursor[B]) Stats() ScanStats {
	st := c.stats
	st.BlocksTotal = len(c.r.zones)
	return st
}

// PeakDecodedBytes returns the largest pre-filter decoded-batch footprint
// any single block produced so far — the scan's transient high-water mark,
// independent of how selective the predicate is.
func (c *Cursor[B]) PeakDecodedBytes() int64 { return c.peak }

// Close releases the cursor's scratch back to the pool (the batch becomes
// invalid) and returns Err. It does not close the underlying reader.
func (c *Cursor[B]) Close() error {
	if !c.closed {
		c.closed = true
		c.r.ops.pool.Put(c.sc)
		c.sc = nil
	}
	return c.err
}
