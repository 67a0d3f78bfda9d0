package storage

import (
	"io"
	"os"

	"vita/internal/colstore"
)

// Cursor is the one read API over bulk data — the paper's uniform stream
// interface: pull one decoded column batch at a time, so huge scans run in
// O(block) memory with no per-row call overhead. Every reader of rows in the
// system is a Cursor: a VTB file (the zone-map-pruned block cursor of
// internal/colstore, memory-mapped by default), a CSV file (records parsed
// into batches of the same shape), a merge of several files, an in-memory
// slice (internal/plan), the block cache (internal/serve). B is the row
// kind's batch, *colstore.TrajectoryBatch or *colstore.RSSIBatch.
//
//	cur, format, err := storage.OpenCursor(storage.Trajectory, path, pred, colstore.OpenOptions{})
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		b := cur.Batch()
//		... b.T, b.X, b.Y, or b.Row(i) ...
//	}
//	if err := cur.Err(); err != nil { ... }
type Cursor[B any] interface {
	// Next advances to the next non-empty batch of matching rows. It is false
	// at the end of the data, on error (see Err), and after Close.
	Next() bool
	// Batch returns the current batch, valid until the next Next or Close.
	Batch() B
	// Err returns the first error the cursor hit, if any.
	Err() error
	// Stats returns the scan statistics accumulated so far. Sources without
	// block structure (CSV, slices) count rows only.
	Stats() colstore.ScanStats
	// PeakDecodedBytes returns the largest batch the cursor has decoded so
	// far, measured before predicate filtering — the scan's transient
	// footprint. Cursors that decode nothing report 0.
	PeakDecodedBytes() int64
	// Close releases the cursor and whatever it owns, returning Err. Closing
	// twice is safe.
	Close() error
}

// TrajectoryCursor and RSSICursor are Cursor for the two row kinds.
type (
	TrajectoryCursor = Cursor[*colstore.TrajectoryBatch]
	RSSICursor       = Cursor[*colstore.RSSIBatch]
)

// Kind is what differs between the two row kinds above the block layer: how
// a VTB file of the kind opens, how a CSV record of the kind parses, and the
// order a merge of the kind's files restores. Trajectory and RSSI are the two
// values; the generic entry points (OpenCursor, OpenCursorMulti, Merge) take
// one to select the kind.
type Kind[B colstore.Batch] struct {
	open     func(path string, opts colstore.OpenOptions) (*colstore.Reader[B], error)
	newBatch func() B
	// header is the first record the kind's CSV writer emits.
	header []string
	// appendCSV parses one CSV record and appends it to b if it matches pred.
	appendCSV func(b B, rec []string, pred colstore.Predicate) (matched bool, err error)
	// mergeKeys returns b's merge-key columns: files of the kind are sorted
	// by (t, obj), or by obj alone when t is nil.
	mergeKeys func(b B) (t []float64, obj []int64)
	// appendRows bulk-appends src's rows [lo, hi) to dst.
	appendRows func(dst, src B, lo, hi int)
}

// Trajectory selects trajectory rows (also positioning estimates, which share
// the schema): files are in global time order, ties by object.
var Trajectory = &Kind[*colstore.TrajectoryBatch]{
	open:     colstore.OpenTrajectory,
	newBatch: func() *colstore.TrajectoryBatch { return new(colstore.TrajectoryBatch) },
	header:   TrajectoryCSVHeader,
	appendCSV: func(b *colstore.TrajectoryBatch, rec []string, pred colstore.Predicate) (bool, error) {
		s, err := parseTrajectoryRecord(rec)
		if err != nil || !pred.MatchTrajectory(s) {
			return false, err
		}
		b.Append(s)
		return true, nil
	},
	mergeKeys:  func(b *colstore.TrajectoryBatch) ([]float64, []int64) { return b.T, b.ObjID },
	appendRows: (*colstore.TrajectoryBatch).AppendRows,
}

// RSSI selects RSSI measurement rows: files hold ascending object groups.
// Floor and box constraints do not apply to RSSI rows and are ignored.
var RSSI = &Kind[*colstore.RSSIBatch]{
	open:     colstore.OpenRSSI,
	newBatch: func() *colstore.RSSIBatch { return new(colstore.RSSIBatch) },
	header:   RSSICSVHeader,
	appendCSV: func(b *colstore.RSSIBatch, rec []string, pred colstore.Predicate) (bool, error) {
		m, err := parseRSSIRecord(rec)
		if err != nil || !pred.MatchRSSI(m) {
			return false, err
		}
		b.Append(m)
		return true, nil
	},
	mergeKeys:  func(b *colstore.RSSIBatch) ([]float64, []int64) { return nil, b.ObjID },
	appendRows: (*colstore.RSSIBatch).AppendRows,
}

// OpenCursor opens a cursor over the rows of the file at path that match
// pred, in file order, in either format (detected by magic bytes). opts apply
// to VTB files; CSV is always read sequentially through the page cache.
func OpenCursor[B colstore.Batch](k *Kind[B], path string, pred colstore.Predicate, opts colstore.OpenOptions) (Cursor[B], Format, error) {
	format, err := DetectFormat(path)
	if err != nil {
		return nil, "", err
	}
	if format == FormatVTB {
		r, err := k.open(path, opts)
		if err != nil {
			return nil, format, err
		}
		return vtbCursor[B]{r.Cursor(pred), r}, format, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, format, err
	}
	return newCSVCursor(k, f, f, pred), format, nil
}

// vtbCursor couples a colstore cursor to the reader it borrows, closing both
// together.
type vtbCursor[B colstore.Batch] struct {
	*colstore.Cursor[B]
	r *colstore.Reader[B]
}

func (c vtbCursor[B]) Close() error {
	err := c.Cursor.Close()
	if cerr := c.r.Close(); err == nil {
		err = cerr
	}
	return err
}

// BatchRows is how many rows a batch holds where the source has no block
// structure of its own (parsed CSV, a merge's output, an in-memory slice) —
// the VTB default block size, so every cursor presents the same granularity.
const BatchRows = 4096

// csvCursor adapts the CSV record loop to the batch shape. CSV has no block
// structure, so stats report rows only.
type csvCursor[B colstore.Batch] struct {
	k      *Kind[B]
	recs   *csvRecords
	closer io.Closer // nil when the caller owns the stream
	pred   colstore.Predicate
	batch  B
	stats  colstore.ScanStats
	peak   int64
	err    error
	closed bool
	done   bool
}

// newCSVCursor reads the kind's CSV records from r; Close closes closer when
// it is non-nil.
func newCSVCursor[B colstore.Batch](k *Kind[B], r io.Reader, closer io.Closer, pred colstore.Predicate) *csvCursor[B] {
	return &csvCursor[B]{k: k, recs: newCSVRecords(r, k.header), closer: closer, pred: pred, batch: k.newBatch()}
}

func (c *csvCursor[B]) Next() bool {
	if c.err != nil || c.closed || c.done {
		return false
	}
	c.batch.Reset()
	for c.batch.Len() < BatchRows {
		rec, err := c.recs.next()
		if err == io.EOF {
			c.done = true
			break
		}
		var matched bool
		if err == nil {
			matched, err = c.k.appendCSV(c.batch, rec, c.pred)
		}
		if err != nil {
			c.err = err
			return false
		}
		c.stats.RowsScanned++
		if matched {
			c.stats.RowsMatched++
		}
	}
	c.peak = max(c.peak, c.batch.Bytes())
	return c.batch.Len() > 0
}

func (c *csvCursor[B]) Batch() B                  { return c.batch }
func (c *csvCursor[B]) Err() error                { return c.err }
func (c *csvCursor[B]) Stats() colstore.ScanStats { return c.stats }
func (c *csvCursor[B]) PeakDecodedBytes() int64   { return c.peak }

func (c *csvCursor[B]) Close() error {
	if !c.closed {
		c.closed = true
		if c.closer != nil {
			if cerr := c.closer.Close(); c.err == nil {
				c.err = cerr
			}
		}
	}
	return c.err
}
