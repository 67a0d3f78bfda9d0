package seglog

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"

	"vita/internal/colstore"
	"vita/internal/storage"
)

// CompactorOptions tunes background compaction.
type CompactorOptions struct {
	// MinSegments is how many live segments it takes before a merge runs
	// (default 4; the floor is 2 — merging one segment is a no-op).
	MinSegments int
	// Block tunes the VTB encoding of the merged segment.
	Block colstore.Options
}

func (o CompactorOptions) withDefaults() CompactorOptions {
	if o.MinSegments <= 0 {
		o.MinSegments = 4
	} else if o.MinSegments < 2 {
		o.MinSegments = 2
	}
	return o
}

// Compactor merges a log's accumulated small segments into one large segment
// re-blocked into global order — time order (ties by object) for trajectory
// logs, object-group order for RSSI logs — so zone maps tighten back up and
// scans touch one file instead of many. The merge never blocks readers or
// the writer: inputs are immutable, the output builds under a .tmp name, and
// the swap is one manifest checkpoint (which also empties the journal).
// The inputs are unlinked once that commit is durable and the log's lock is
// released; readers that already opened them keep reading their mappings. A
// compactor killed mid-merge leaves an orphan .tmp and an untouched
// manifest, so queries are byte-identical before and after the crash.
//
// A Compactor is a log mutator: run it in the writer's process or, under the
// single-mutator rule, as the log's only mutating process.
type Compactor struct {
	log  *Log
	opts CompactorOptions
}

// NewCompactor returns a compactor over l, folding the log's manifest
// journal into a checkpoint first. A failed fold is only logged: a compactor
// appends no journal record, and its commit writes a checkpoint anyway.
func NewCompactor(l *Log, opts CompactorOptions) *Compactor {
	if err := l.foldJournal(); err != nil {
		slog.Warn("manifest journal fold failed", "dir", l.dir, "error", err.Error())
	}
	return &Compactor{log: l, opts: opts.withDefaults()}
}

// RunOnce merges the current live segments into one if at least MinSegments
// are live, returning the merged segment's meta (nil when below threshold).
func (c *Compactor) RunOnce() (*SegmentMeta, error) {
	meta, err := c.runOnce()
	if err != nil {
		metricCompactionErrs.Inc()
		slog.Warn("compaction failed", "dir", c.log.dir, "error", err.Error())
	}
	return meta, err
}

func (c *Compactor) runOnce() (*SegmentMeta, error) {
	man := c.log.Snapshot()
	if len(man.Segments) < c.opts.MinSegments {
		return nil, nil
	}
	start := time.Now()
	inputs := man.Segments
	paths := make([]string, len(inputs))
	level := 0
	var inBytes int64
	// A merge keeps every row, so the merged segment's row count and time
	// span are the inputs' — known before a byte is read.
	meta := SegmentMeta{T0: math.Inf(1), T1: math.Inf(-1)}
	for i, m := range inputs {
		paths[i] = c.log.SegmentPath(m)
		level = max(level, m.Level)
		inBytes += m.Bytes
		if m.Rows > 0 {
			meta.Rows += m.Rows
			meta.T0, meta.T1 = min(meta.T0, m.T0), max(meta.T1, m.T1)
		}
	}
	if meta.Rows == 0 {
		meta.T0, meta.T1 = 0, 0
	}

	id := c.log.reserveID()
	tmp := filepath.Join(c.log.dir, segName(id)+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	rows, err := c.merge(f, paths)
	if err == nil && rows != meta.Rows {
		err = fmt.Errorf("seglog: merged %d rows, manifest promises %d", rows, meta.Rows)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(c.log.dir, segName(id))); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	st, err := os.Stat(filepath.Join(c.log.dir, segName(id)))
	if err == nil {
		err = syncDir(c.log.dir)
	}
	if err != nil {
		return nil, err
	}
	meta.ID, meta.File, meta.Bytes, meta.Level = id, segName(id), st.Size(), level+1
	if err := c.log.replaceSegments(inputs, meta); err != nil {
		os.Remove(filepath.Join(c.log.dir, segName(id)))
		return nil, err
	}
	// Unlink the inputs only now that the commit has released the log's
	// lock: freeing an fsynced file's blocks can take tens of milliseconds
	// on a disk that discards them, and no one needs the lock meanwhile,
	// since segment names are never reused.
	for _, m := range inputs {
		removeFile(c.log.SegmentPath(m))
	}
	kind := c.log.kind.String()
	elapsed := time.Since(start)
	metricCompactionRuns.With(kind).Inc()
	metricCompactionDur.With(kind).Observe(elapsed.Seconds())
	metricCompactionBytes.With(kind).Add(inBytes)
	slog.Info("compaction",
		"kind", kind, "inputs", len(inputs), "segment", meta.ID, "level", meta.Level,
		"rows", meta.Rows, "bytes", meta.Bytes, "bytes_merged", inBytes,
		"duration_ms", elapsed.Milliseconds())
	return &meta, nil
}

// removeFile deletes a superseded segment file; tests replace it to hold an
// unlink open.
var removeFile = os.Remove

// merge streams every input row through the k-way merged cursor into one
// fresh VTB stream, fsyncing before return, and reports how many rows it
// wrote.
func (c *Compactor) merge(f *os.File, paths []string) (rows int, err error) {
	switch c.log.kind {
	case colstore.KindTrajectory:
		rows, err = mergeInto(storage.Trajectory, paths, colstore.NewTrajectoryWriter(f, c.opts.Block))
	case colstore.KindRSSI:
		rows, err = mergeInto(storage.RSSI, paths, colstore.NewRSSIWriter(f, c.opts.Block))
	default:
		err = fmt.Errorf("seglog: cannot compact kind %s", c.log.kind)
	}
	if err != nil {
		return rows, err
	}
	return rows, f.Sync()
}

func mergeInto[T any, B colstore.RowBatch[T]](k *storage.Kind[B], paths []string, w *colstore.Writer[T]) (int, error) {
	cur, err := storage.OpenCursorMulti(k, paths, colstore.Predicate{})
	if err != nil {
		return 0, err
	}
	return storage.Copy(cur, w)
}

// Run compacts every interval until ctx is cancelled. A failed merge is
// logged and counted by RunOnce and the loop carries on — a transient
// failure (disk full, say) should not end background maintenance.
func (c *Compactor) Run(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.RunOnce()
		}
	}
}
