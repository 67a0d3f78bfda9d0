package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vita/internal/colstore"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/seglog"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// Sink receives a run's data products as the pipeline produces them, record
// by record, so a sink can persist a run of any size without the pipeline
// buffering output for it. Trajectory samples arrive in global time order
// (straight from the generation layer's merge collector); RSSI measurements
// arrive grouped by ascending object ID, time-ordered per object and device
// within each group (the replay order of the RSSI generator, and the same
// order the batch CSV path always used). The two streams are produced
// concurrently: calls are serialized — never concurrent, each from whichever
// pipeline goroutine holds the run's sink lock — and each stream keeps its own
// order, but trajectory and RSSI calls may interleave. The small derived
// tables (estimates, proximity) arrive once, after the last row of both
// streams: the positioning method runs per object alongside the RSSI replay,
// and its output is handed over whole when the replay is done. A run given a
// sink does not keep the RSSI rows it hands over (Dataset.RSSI is nil).
//
// The pipeline never calls Close; the caller that created the sink closes it
// after RunTo returns, which is what flushes footers and buffers.
type Sink interface {
	// Trajectory receives one ground-truth sample; calls are serialized
	// with each other and with RSSI.
	Trajectory(s trajectory.Sample) error
	// RSSI receives one raw measurement; calls are serialized with each
	// other and with Trajectory.
	RSSI(m rssi.Measurement) error
	// Estimates receives the positioning output (possibly empty).
	Estimates(es []positioning.Estimate) error
	// Proximity receives the proximity output (possibly empty).
	Proximity(rs []positioning.ProximityRecord) error
	// Close flushes and releases everything the sink holds.
	Close() error
}

// DirSink writes a run's data products into a directory, in one of two
// layouts. Flat (NewDirSink): trajectory.<ext> and rssi.<ext> in the chosen
// bulk format. Segment log (NewSegmentedDirSink): dir/seglog/trajectory and
// dir/seglog/rssi each hold rolling VTB segments under a manifest
// (internal/seglog), so a query daemon can serve the dataset while
// generation is still appending — every sealed segment is immediately
// visible to manifest readers, and a crash costs at most the segment being
// filled. Either way the derived tables land in dir at Close as
// estimates.csv and proximity.csv (they are small, and the text form is
// what the evaluation tooling consumes). Because the bulk rows stream
// straight off the pipeline, the trajectory rows carry global time order
// (ties by object ID) — the order that makes VTB zone maps maximally
// selective for time-window scans — while the RSSI rows are object-grouped,
// which instead makes object-ID pruning sharp.
type DirSink struct {
	dir    string
	format storage.Format
	traj   storage.RowWriter[trajectory.Sample]
	rssi   storage.RowWriter[rssi.Measurement]
	// The segment-log writers behind traj and rssi; nil for flat files.
	trajLog *seglog.Writer[trajectory.Sample]
	rssiLog *seglog.Writer[rssi.Measurement]

	estimates []positioning.Estimate
	proximity []positioning.ProximityRecord
}

// SegmentedDirSink is a DirSink in the segment-log layout.
type SegmentedDirSink = DirSink

// fileWriter is a flat layout's row writer: closing it closes its file.
type fileWriter[T any] struct {
	storage.RowWriter[T]
	f *os.File
}

func (w fileWriter[T]) Close() error { return errors.Join(w.RowWriter.Close(), w.f.Close()) }

// NewDirSink creates dir (if needed) and opens streaming writers for the
// bulk outputs in the given format.
func NewDirSink(dir string, format storage.Format) (*DirSink, error) {
	return NewDirSinkOptions(dir, format, colstore.Options{})
}

// NewDirSinkOptions is NewDirSink with explicit VTB block options (codec,
// block size). The options only apply when format is FormatVTB; CSV output
// ignores them.
func NewDirSinkOptions(dir string, format storage.Format, block colstore.Options) (*DirSink, error) {
	switch format {
	case storage.FormatCSV, storage.FormatVTB:
	default:
		return nil, fmt.Errorf("core: unknown sink format %q", format)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &DirSink{dir: dir, format: format}
	trajFile, err := os.Create(s.path("trajectory"))
	if err != nil {
		return nil, err
	}
	rssiFile, err := os.Create(s.path("rssi"))
	if err != nil {
		trajFile.Close()
		return nil, err
	}
	var traj storage.RowWriter[trajectory.Sample]
	var rs storage.RowWriter[rssi.Measurement]
	if format == storage.FormatVTB {
		traj = colstore.NewTrajectoryWriter(trajFile, block)
		rs = colstore.NewRSSIWriter(rssiFile, block)
	} else {
		if traj, err = storage.NewTrajectoryCSVWriter(trajFile); err == nil {
			rs, err = storage.NewRSSICSVWriter(rssiFile)
		}
		if err != nil {
			trajFile.Close()
			rssiFile.Close()
			return nil, err
		}
	}
	s.traj = fileWriter[trajectory.Sample]{traj, trajFile}
	s.rssi = fileWriter[rssi.Measurement]{rs, rssiFile}
	return s, nil
}

// TrajectoryLogDir returns the trajectory segment log directory under a
// dataset directory — the layout contract between NewSegmentedDirSink and
// serve.Open.
func TrajectoryLogDir(dir string) string { return filepath.Join(dir, "seglog", "trajectory") }

// RSSILogDir returns the RSSI segment log directory under a dataset
// directory.
func RSSILogDir(dir string) string { return filepath.Join(dir, "seglog", "rssi") }

// NewSegmentedDirSink creates (or resumes) the segment logs under dir and
// opens rolling writers for the bulk outputs, which are necessarily VTB:
// segment logs have no CSV form. opts applies to both logs — roll
// thresholds and block encoding.
func NewSegmentedDirSink(dir string, opts seglog.WriterOptions) (*SegmentedDirSink, error) {
	trajLog, err := seglog.OpenOrCreate(TrajectoryLogDir(dir), colstore.KindTrajectory)
	if err != nil {
		return nil, err
	}
	rssiLog, err := seglog.OpenOrCreate(RSSILogDir(dir), colstore.KindRSSI)
	if err != nil {
		return nil, err
	}
	s := &DirSink{dir: dir, format: storage.FormatVTB}
	if s.trajLog, err = seglog.NewTrajectoryWriter(trajLog, opts); err != nil {
		return nil, err
	}
	if s.rssiLog, err = seglog.NewRSSIWriter(rssiLog, opts); err != nil {
		s.trajLog.Abort()
		return nil, err
	}
	s.traj, s.rssi = s.trajLog, s.rssiLog
	return s, nil
}

// Segments returns how many trajectory and RSSI segments have sealed (none
// for flat files).
func (s *DirSink) Segments() (int, int) {
	if s.trajLog == nil {
		return 0, 0
	}
	return s.trajLog.Segments(), s.rssiLog.Segments()
}

func (s *DirSink) path(name string) string { return filepath.Join(s.dir, name+s.format.Ext()) }

// Trajectory implements Sink.
func (s *DirSink) Trajectory(sm trajectory.Sample) error { return s.traj.Write(sm) }

// RSSI implements Sink.
func (s *DirSink) RSSI(m rssi.Measurement) error { return s.rssi.Write(m) }

// Estimates implements Sink; the table is written at Close, and only when
// non-empty.
func (s *DirSink) Estimates(es []positioning.Estimate) error {
	s.estimates = es
	return nil
}

// Proximity implements Sink; the table is written at Close, and only when
// non-empty.
func (s *DirSink) Proximity(rs []positioning.ProximityRecord) error {
	s.proximity = rs
	return nil
}

// Close flushes the bulk writers (for VTB files this writes the footer
// index; for segment logs it seals the final segments) and materializes
// the derived CSV tables.
func (s *DirSink) Close() error {
	errs := []error{s.traj.Close(), s.rssi.Close()}
	if len(s.estimates) > 0 {
		errs = append(errs, writeFileWith(filepath.Join(s.dir, "estimates.csv"), func(f *os.File) error {
			return storage.WriteEstimateCSV(f, s.estimates)
		}))
	}
	if len(s.proximity) > 0 {
		errs = append(errs, writeFileWith(filepath.Join(s.dir, "proximity.csv"), func(f *os.File) error {
			return storage.WriteProximityCSV(f, s.proximity)
		}))
	}
	return errors.Join(errs...)
}

// Discard abandons a failed run. Flat files are closed and removed, so a
// truncated trajectory/rssi file (a VTB file without its footer, say) cannot
// shadow valid data from an earlier run. Segment logs drop the segments
// being filled and keep the sealed prefix — the logs stay consistent,
// holding exactly the data that committed before the failure. Call it
// instead of Close, never after.
func (s *DirSink) Discard() error {
	if s.trajLog != nil {
		return errors.Join(s.trajLog.Abort(), s.rssiLog.Abort())
	}
	s.traj.Close()
	s.rssi.Close()
	return errors.Join(os.Remove(s.path("trajectory")), os.Remove(s.path("rssi")))
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
