package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vita/internal/colstore"
	"vita/internal/positioning"
	"vita/internal/rssi"
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

// recordWriter is the streaming shape shared by the CSV and VTB trajectory
// writers (and, with its own record type, the RSSI ones).
type recordWriter[T any] interface {
	Write(T) error
	Close() error
}

// DirSink writes a run's data products into a directory, as
// trajectory.<ext> and rssi.<ext> in the chosen bulk format plus
// estimates.csv and proximity.csv (derived tables stay CSV: they are small,
// and the text form is what the evaluation tooling consumes). Because the
// bulk rows stream straight off the pipeline, the trajectory file carries
// global time order (ties by object ID) — the order that makes VTB zone
// maps maximally selective for time-window scans — while the RSSI file is
// object-grouped, which instead makes object-ID pruning sharp.
type DirSink struct {
	dir    string
	format storage.Format

	trajFile, rssiFile *os.File
	traj               recordWriter[trajectory.Sample]
	rssi               recordWriter[rssi.Measurement]

	estimates []positioning.Estimate
	proximity []positioning.ProximityRecord
}

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
	var err error
	if s.trajFile, err = os.Create(filepath.Join(dir, "trajectory"+format.Ext())); err != nil {
		return nil, err
	}
	if s.rssiFile, err = os.Create(filepath.Join(dir, "rssi"+format.Ext())); err != nil {
		s.trajFile.Close()
		return nil, err
	}
	if format == storage.FormatVTB {
		s.traj = colstore.NewTrajectoryWriter(s.trajFile, block)
		s.rssi = colstore.NewRSSIWriter(s.rssiFile, block)
	} else {
		if s.traj, err = storage.NewTrajectoryCSVWriter(s.trajFile); err == nil {
			s.rssi, err = storage.NewRSSICSVWriter(s.rssiFile)
		}
		if err != nil {
			s.trajFile.Close()
			s.rssiFile.Close()
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the output directory.
func (s *DirSink) Dir() string { return s.dir }

// Format returns the bulk output format.
func (s *DirSink) Format() storage.Format { return s.format }

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

// Close flushes the bulk writers (for VTB this writes the footer index) and
// materializes the derived CSV tables.
func (s *DirSink) Close() error {
	var errs []error
	errs = append(errs, s.traj.Close(), s.trajFile.Close())
	errs = append(errs, s.rssi.Close(), s.rssiFile.Close())
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

// Discard abandons a failed run: it closes the underlying files without
// flushing guarantees and removes the bulk outputs, so a truncated
// trajectory/rssi file (a VTB file without its footer, say) cannot shadow
// valid data from an earlier run. Call it instead of Close, never after.
func (s *DirSink) Discard() error {
	s.traj.Close()
	s.trajFile.Close()
	s.rssi.Close()
	s.rssiFile.Close()
	return errors.Join(
		os.Remove(s.trajFile.Name()),
		os.Remove(s.rssiFile.Name()),
	)
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
