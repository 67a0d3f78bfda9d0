package plan

import (
	"vita/internal/colstore"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// FileSource scans one trajectory file (VTB or CSV, detected by magic
// bytes) through storage.OpenCursor — VTB scans prune blocks by zone map
// under the pushed-down predicate.
type FileSource struct {
	Path string
}

// Open opens a batch cursor over the file under pred.
func (s FileSource) Open(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	cur, _, err := storage.OpenCursor(storage.Trajectory, s.Path, pred)
	return cur, err
}

// SliceSource serves an in-memory sample slice (library callers, tests).
// The predicate filters row by row; stats count rows only, like a CSV scan.
type SliceSource struct {
	Samples []trajectory.Sample
	// BatchSize bounds rows per yielded batch (default storage.BatchRows).
	BatchSize int
}

// Open returns a cursor over the slice under pred.
func (s SliceSource) Open(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	n := s.BatchSize
	if n <= 0 {
		n = storage.BatchRows
	}
	return &sliceCursor{samples: s.Samples, pred: pred, size: n}, nil
}

// sliceCursor yields an in-memory slice as predicate-filtered batches. It
// decodes nothing, so its peak is 0.
type sliceCursor struct {
	samples []trajectory.Sample
	pred    colstore.Predicate
	size    int
	pos     int
	batch   colstore.TrajectoryBatch
	stats   colstore.ScanStats
	closed  bool
}

func (c *sliceCursor) Next() bool {
	if c.closed {
		return false
	}
	c.batch.Reset()
	for c.pos < len(c.samples) && c.batch.Len() < c.size {
		s := c.samples[c.pos]
		c.pos++
		c.stats.RowsScanned++
		if c.pred.MatchTrajectory(s) {
			c.stats.RowsMatched++
			c.batch.Append(s)
		}
	}
	return c.batch.Len() > 0
}

func (c *sliceCursor) Batch() *colstore.TrajectoryBatch { return &c.batch }
func (c *sliceCursor) Err() error                       { return nil }
func (c *sliceCursor) Stats() colstore.ScanStats        { return c.stats }
func (c *sliceCursor) PeakDecodedBytes() int64          { return 0 }
func (c *sliceCursor) Close() error {
	c.closed = true
	return nil
}
