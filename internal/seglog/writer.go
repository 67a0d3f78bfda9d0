package seglog

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"vita/internal/colstore"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// WriterOptions tunes segment roll-over.
type WriterOptions struct {
	// MaxSegmentBytes rolls a segment once its on-disk size reaches this many
	// bytes (default 64 MiB). The size is taken when a block is handed to
	// the VTB writer, over the blocks before it (colstore.Writer.Flushed),
	// so where a segment rolls depends on its rows alone.
	MaxSegmentBytes int64
	// MaxSegmentRows additionally rolls after this many rows (0 = no row
	// bound). Small row bounds are how tests and demos force multi-segment
	// logs out of tiny datasets.
	MaxSegmentRows int
	// Block tunes the VTB encoding inside each segment.
	Block colstore.Options
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	return o
}

// Writer streams records into a log, sealing a segment and starting the next
// whenever a threshold trips. Sealing is the crash-safety pivot: the VTB
// footer is written, the file synced and renamed from its .tmp name, and
// only then does the manifest commit — so at every instant the manifest
// names only complete, validated segments, and a crash costs at most the
// rows of the segment being filled.
//
// A Writer is the log's single mutator (see the package comment); calls are
// serialized by the caller, like every pipeline sink.
type Writer[T any] struct {
	log    *Log
	opts   WriterOptions
	newEnc func(io.Writer, colstore.Options) *colstore.Writer[T]
	timeOf func(T) float64

	f      *os.File
	enc    *colstore.Writer[T]
	id     uint64
	rows   int
	t0, t1 float64
	sealed int
	closed bool
}

// NewTrajectoryWriter returns a rolling writer of trajectory segments.
// Orphans of an earlier crash are swept on construction.
func NewTrajectoryWriter(l *Log, opts WriterOptions) (*Writer[trajectory.Sample], error) {
	return newWriter(l, colstore.KindTrajectory, opts, colstore.NewTrajectoryWriter,
		func(s trajectory.Sample) float64 { return s.T })
}

// NewRSSIWriter returns a rolling writer of RSSI segments.
func NewRSSIWriter(l *Log, opts WriterOptions) (*Writer[rssi.Measurement], error) {
	return newWriter(l, colstore.KindRSSI, opts, colstore.NewRSSIWriter,
		func(m rssi.Measurement) float64 { return m.T })
}

func newWriter[T any](l *Log, kind colstore.Kind, opts WriterOptions,
	newEnc func(io.Writer, colstore.Options) *colstore.Writer[T], timeOf func(T) float64) (*Writer[T], error) {
	if l.kind != kind {
		return nil, fmt.Errorf("seglog: log %s holds %s records, want %s", l.dir, l.kind, kind)
	}
	if _, err := l.SweepOrphans(); err != nil {
		return nil, err
	}
	return &Writer[T]{log: l, opts: opts.withDefaults(), newEnc: newEnc, timeOf: timeOf}, nil
}

// Write appends one record, rolling the current segment when a threshold
// trips. The byte threshold is observed at block hand-off granularity (the
// VTB writer fills one block while the one before it is written), so
// segments overshoot by at most two encoded blocks.
func (w *Writer[T]) Write(rec T) error {
	if w.closed {
		return fmt.Errorf("seglog: write after Close")
	}
	if w.enc == nil {
		if err := w.openSegment(); err != nil {
			return err
		}
	}
	if err := w.enc.Write(rec); err != nil {
		return err
	}
	t := w.timeOf(rec)
	if w.rows == 0 {
		w.t0, w.t1 = t, t
	} else {
		w.t0, w.t1 = min(w.t0, t), max(w.t1, t)
	}
	w.rows++
	if (w.opts.MaxSegmentRows > 0 && w.rows >= w.opts.MaxSegmentRows) ||
		w.enc.Flushed() >= w.opts.MaxSegmentBytes {
		return w.seal()
	}
	return nil
}

// Close seals the final segment and retires the writer.
func (w *Writer[T]) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.rows > 0 {
		return w.seal()
	}
	return w.abortOpenSegment()
}

// Abort discards the segment being filled — its tmp file is removed, sealed
// segments stay. Call it instead of Close when a run fails: the log keeps
// the consistent prefix that already committed.
func (w *Writer[T]) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.abortOpenSegment()
}

// Segments returns how many segments this writer has sealed.
func (w *Writer[T]) Segments() int { return w.sealed }

// Log returns the underlying log.
func (w *Writer[T]) Log() *Log { return w.log }

func (w *Writer[T]) openSegment() error {
	w.id = w.log.reserveID()
	f, err := os.Create(filepath.Join(w.log.dir, segName(w.id)+".tmp"))
	if err != nil {
		return err
	}
	w.f = f
	w.enc = w.newEnc(f, w.opts.Block)
	w.rows = 0
	return nil
}

// seal completes the current segment: footer, fsync, rename into place,
// manifest commit.
func (w *Writer[T]) seal() error {
	if err := w.enc.Close(); err != nil {
		w.abortOpenSegment()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.abortOpenSegment()
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		w.f, w.enc = nil, nil
		return err
	}
	tmp := w.f.Name()
	final := filepath.Join(w.log.dir, segName(w.id))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		w.f, w.enc = nil, nil
		return err
	}
	st, err := os.Stat(final)
	if err != nil {
		// The segment is renamed into place but uncommitted; the next mutator
		// sweeps it. Reset so later Write/Abort calls see no open segment.
		w.f, w.enc = nil, nil
		w.rows = 0
		return err
	}
	meta := SegmentMeta{
		ID: w.id, File: segName(w.id),
		Rows: w.rows, Bytes: st.Size(),
		T0: w.t0, T1: w.t1,
	}
	w.f, w.enc = nil, nil
	w.rows = 0
	if err := w.log.appendSegment(meta); err != nil {
		// The file is in place but unreferenced; the next mutator sweeps it.
		slog.Warn("segment commit failed",
			"kind", w.log.kind.String(), "segment", meta.ID, "file", meta.File,
			"error", err.Error())
		return err
	}
	w.sealed++
	metricSealed.With(w.log.kind.String()).Inc()
	slog.Info("segment sealed",
		"kind", w.log.kind.String(), "segment", meta.ID, "file", meta.File,
		"rows", meta.Rows, "bytes", meta.Bytes)
	return nil
}

// abortOpenSegment drops the segment being filled. Closing its encoder first
// waits for the block in flight, whose write error, if any, is returned.
func (w *Writer[T]) abortOpenSegment() error {
	if w.f == nil {
		return nil
	}
	name := w.f.Name()
	encErr := w.enc.Close()
	w.f.Close()
	w.f, w.enc = nil, nil
	w.rows = 0
	return errors.Join(encErr, os.Remove(name))
}
