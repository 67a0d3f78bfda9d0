package colstore

import "fmt"

// Batch cursors are the scan path for huge result sets: instead of one
// emit(Sample) call per row, the caller pulls one decoded column batch per
// surviving block and iterates columns (or views rows through Batch().Row).
// The cursor owns one pooled decode scratch for its whole lifetime, so a
// steady-state scan performs no per-block allocations at all — the batch the
// caller sees is the scratch's, rewritten in place by every Next.
//
//	cur := r.Cursor(pred)
//	defer cur.Close()
//	for cur.Next() {
//		b := cur.Batch()
//		for i := 0; i < b.Len(); i++ { ... b.T[i], b.X[i], b.Y[i] ... }
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Rows, order, and ScanStats are exactly those of Scan with the same
// predicate — the batches are the same rows, chunked by block.

// TrajectoryCursor iterates a trajectory VTB file batch by batch; obtain one
// from TrajectoryReader.Cursor. Not safe for concurrent use (open one cursor
// per goroutine; the underlying reader supports any number).
type TrajectoryCursor struct {
	rd     *reader
	pred   Predicate
	sc     *decodeScratch
	next   int
	stats  ScanStats
	peak   int64
	err    error
	closed bool
}

// Cursor starts a batch scan of the samples matching pred, in file order,
// skipping blocks via zone maps exactly like Scan.
func (tr *TrajectoryReader) Cursor(pred Predicate) *TrajectoryCursor {
	return &TrajectoryCursor{
		rd:    tr.rd,
		pred:  pred,
		sc:    getScratch(),
		stats: ScanStats{BlocksTotal: len(tr.rd.zones)},
	}
}

// Next advances to the next non-empty batch of matching rows, reporting
// whether one is available. It returns false at end of file, on error (see
// Err), or after Close.
func (c *TrajectoryCursor) Next() bool {
	if c.err != nil || c.closed {
		return false
	}
	for c.next < len(c.rd.zones) {
		i := c.next
		c.next++
		if c.pred.skipBlock(c.rd.zones[i]) {
			c.stats.BlocksPruned++
			continue
		}
		c.stats.BlocksScanned++
		raw, err := c.rd.blockBytes(i, c.sc)
		if err != nil {
			c.err = err
			return false
		}
		if err := decodeTrajectoryBatchInto(raw, &c.sc.batch, c.sc); err != nil {
			c.err = fmt.Errorf("block %d: %w", i, err)
			return false
		}
		c.stats.RowsScanned += c.sc.batch.Len()
		// Peak is measured before filtering: the full decoded block is what
		// was transiently resident, however few rows survive the predicate.
		if n := c.sc.batch.Bytes(); n > c.peak {
			c.peak = n
		}
		if !c.pred.CoversBlock(c.rd.zones[i]) {
			c.sc.sel = c.pred.SelectTrajectory(&c.sc.batch, c.sc.sel)
			if len(c.sc.sel) < c.sc.batch.Len() {
				c.sc.batch.Gather(&c.sc.batch, c.sc.sel)
			}
		}
		c.stats.RowsMatched += c.sc.batch.Len()
		if c.sc.batch.Len() == 0 {
			continue // zone map matched but no row did; pull the next block
		}
		return true
	}
	return false
}

// Batch returns the current batch. It is valid only until the next call to
// Next or Close — copy out (AppendTo) anything that must outlive it.
func (c *TrajectoryCursor) Batch() *TrajectoryBatch { return &c.sc.batch }

// Err returns the first error the cursor hit, if any.
func (c *TrajectoryCursor) Err() error { return c.err }

// Stats returns the scan statistics accumulated so far; after Next has
// returned false they equal what Scan would have reported.
func (c *TrajectoryCursor) Stats() ScanStats { return c.stats }

// PeakDecodedBytes returns the largest pre-filter decoded-batch footprint
// any single block produced so far — the scan's transient high-water mark,
// independent of how selective the predicate is.
func (c *TrajectoryCursor) PeakDecodedBytes() int64 { return c.peak }

// Close releases the cursor's scratch back to the pool (the batch becomes
// invalid) and returns Err. It does not close the underlying reader.
func (c *TrajectoryCursor) Close() error {
	if !c.closed {
		c.closed = true
		putScratch(c.sc)
		c.sc = nil
	}
	return c.err
}

// RSSICursor iterates an RSSI VTB file batch by batch; see TrajectoryCursor
// for the contract.
type RSSICursor struct {
	rd     *reader
	pred   Predicate
	sc     *decodeScratch
	next   int
	stats  ScanStats
	peak   int64
	err    error
	closed bool
}

// Cursor starts a batch scan of the measurements matching pred (time and
// object constraints; floor/box do not apply to RSSI rows), in file order.
func (rr *RSSIReader) Cursor(pred Predicate) *RSSICursor {
	pred.HasFloor, pred.HasBox = false, false
	return &RSSICursor{
		rd:    rr.rd,
		pred:  pred,
		sc:    getScratch(),
		stats: ScanStats{BlocksTotal: len(rr.rd.zones)},
	}
}

// Next advances to the next non-empty batch of matching rows; see
// TrajectoryCursor.Next.
func (c *RSSICursor) Next() bool {
	if c.err != nil || c.closed {
		return false
	}
	for c.next < len(c.rd.zones) {
		i := c.next
		c.next++
		if c.pred.skipBlock(c.rd.zones[i]) {
			c.stats.BlocksPruned++
			continue
		}
		c.stats.BlocksScanned++
		raw, err := c.rd.blockBytes(i, c.sc)
		if err != nil {
			c.err = err
			return false
		}
		if err := decodeRSSIBatchInto(raw, &c.sc.rbatch, c.sc); err != nil {
			c.err = fmt.Errorf("block %d: %w", i, err)
			return false
		}
		c.stats.RowsScanned += c.sc.rbatch.Len()
		if n := c.sc.rbatch.Bytes(); n > c.peak {
			c.peak = n
		}
		c.sc.rbatch.filter(c.pred)
		c.stats.RowsMatched += c.sc.rbatch.Len()
		if c.sc.rbatch.Len() == 0 {
			continue
		}
		return true
	}
	return false
}

// Batch returns the current batch, valid only until the next Next or Close.
func (c *RSSICursor) Batch() *RSSIBatch { return &c.sc.rbatch }

// Err returns the first error the cursor hit, if any.
func (c *RSSICursor) Err() error { return c.err }

// Stats returns the scan statistics accumulated so far.
func (c *RSSICursor) Stats() ScanStats { return c.stats }

// PeakDecodedBytes returns the largest pre-filter decoded-batch footprint
// any single block produced so far.
func (c *RSSICursor) PeakDecodedBytes() int64 { return c.peak }

// Close releases the cursor's scratch back to the pool and returns Err.
func (c *RSSICursor) Close() error {
	if !c.closed {
		c.closed = true
		putScratch(c.sc)
		c.sc = nil
	}
	return c.err
}
