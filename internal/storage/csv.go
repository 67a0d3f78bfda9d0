package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// The CSV codecs persist the paper's record formats (§4.2):
//
//	trajectory:  o_id, building, floor, partition, x, y, t
//	rssi:        o_id, d_id, rssi, t
//	estimate:    o_id, building, floor, partition, x, y, t
//	proximity:   o_id, d_id, ts, te
//
// Every writer emits its header row first; every reader goes through one
// record loop (csvRecords) that skips exactly that row and nothing else.

// The header rows the CSV writers emit.
var (
	// TrajectoryCSVHeader heads trajectory files — and estimate files, which
	// share the schema.
	TrajectoryCSVHeader = []string{"o_id", "building", "floor", "partition", "x", "y", "t"}
	// RSSICSVHeader heads RSSI files.
	RSSICSVHeader = []string{"o_id", "d_id", "rssi", "t"}

	proximityCSVHeader = []string{"o_id", "d_id", "ts", "te"}
)

// TrajectoryCSVWriter streams trajectory samples as CSV rows. It writes the
// header up front so it can be fed record-by-record from the generation
// pipeline; Close flushes buffered rows but leaves the underlying writer
// open.
type TrajectoryCSVWriter struct {
	cw *csv.Writer
}

// NewTrajectoryCSVWriter returns a streaming writer, having written the
// header row.
func NewTrajectoryCSVWriter(w io.Writer) (*TrajectoryCSVWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(TrajectoryCSVHeader); err != nil {
		return nil, fmt.Errorf("storage: write trajectory header: %w", err)
	}
	return &TrajectoryCSVWriter{cw: cw}, nil
}

// Write appends one sample row.
func (w *TrajectoryCSVWriter) Write(s trajectory.Sample) error {
	rec := []string{
		strconv.Itoa(s.ObjID),
		s.Loc.Building,
		strconv.Itoa(s.Loc.Floor),
		s.Loc.Partition,
		fmtF(s.Loc.Point.X),
		fmtF(s.Loc.Point.Y),
		fmtF(s.T),
	}
	if err := w.cw.Write(rec); err != nil {
		return fmt.Errorf("storage: write trajectory row: %w", err)
	}
	return nil
}

// Close flushes buffered rows.
func (w *TrajectoryCSVWriter) Close() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteTrajectoryCSV writes samples as CSV with a header row.
func WriteTrajectoryCSV(w io.Writer, samples []trajectory.Sample) error {
	tw, err := NewTrajectoryCSVWriter(w)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if err := tw.Write(s); err != nil {
			return err
		}
	}
	return tw.Close()
}

// parseTrajectoryRecord converts one post-header CSV record to a sample.
func parseTrajectoryRecord(rec []string) (trajectory.Sample, error) {
	objID, err := strconv.Atoi(rec[0])
	if err != nil {
		return trajectory.Sample{}, fmt.Errorf("storage: bad o_id %q", rec[0])
	}
	floor, err := strconv.Atoi(rec[2])
	if err != nil {
		return trajectory.Sample{}, fmt.Errorf("storage: bad floor %q", rec[2])
	}
	x, y, t, err := parse3(rec[4], rec[5], rec[6])
	if err != nil {
		return trajectory.Sample{}, err
	}
	return trajectory.Sample{
		ObjID: objID,
		Loc:   model.At(rec[1], floor, rec[3], geom.Pt(x, y)),
		T:     t,
	}, nil
}

// ReadTrajectoryCSV parses CSV written by WriteTrajectoryCSV.
func ReadTrajectoryCSV(r io.Reader) ([]trajectory.Sample, error) {
	var out []trajectory.Sample
	_, err := Each(newCSVCursor(Trajectory, r, nil, colstore.Predicate{}), func(s trajectory.Sample) { out = append(out, s) })
	if err != nil {
		return nil, fmt.Errorf("storage: read trajectory: %w", err)
	}
	return out, nil
}

// RSSICSVWriter streams RSSI measurements as CSV rows; see
// TrajectoryCSVWriter for the streaming contract.
type RSSICSVWriter struct {
	cw *csv.Writer
}

// NewRSSICSVWriter returns a streaming writer, having written the header
// row.
func NewRSSICSVWriter(w io.Writer) (*RSSICSVWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(RSSICSVHeader); err != nil {
		return nil, fmt.Errorf("storage: write rssi header: %w", err)
	}
	return &RSSICSVWriter{cw: cw}, nil
}

// Write appends one measurement row.
func (w *RSSICSVWriter) Write(m rssi.Measurement) error {
	rec := []string{strconv.Itoa(m.ObjID), m.DeviceID, fmtF(m.RSSI), fmtF(m.T)}
	if err := w.cw.Write(rec); err != nil {
		return fmt.Errorf("storage: write rssi row: %w", err)
	}
	return nil
}

// Close flushes buffered rows.
func (w *RSSICSVWriter) Close() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteRSSICSV writes measurements as CSV with a header row.
func WriteRSSICSV(w io.Writer, ms []rssi.Measurement) error {
	rw, err := NewRSSICSVWriter(w)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := rw.Write(m); err != nil {
			return err
		}
	}
	return rw.Close()
}

// parseRSSIRecord converts one post-header CSV record to a measurement.
func parseRSSIRecord(rec []string) (rssi.Measurement, error) {
	objID, err := strconv.Atoi(rec[0])
	if err != nil {
		return rssi.Measurement{}, fmt.Errorf("storage: bad o_id %q", rec[0])
	}
	v, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return rssi.Measurement{}, fmt.Errorf("storage: bad rssi %q", rec[2])
	}
	t, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return rssi.Measurement{}, fmt.Errorf("storage: bad t %q", rec[3])
	}
	return rssi.Measurement{ObjID: objID, DeviceID: rec[1], RSSI: v, T: t}, nil
}

// ReadRSSICSV parses CSV written by WriteRSSICSV.
func ReadRSSICSV(r io.Reader) ([]rssi.Measurement, error) {
	var out []rssi.Measurement
	_, err := Each(newCSVCursor(RSSI, r, nil, colstore.Predicate{}), func(m rssi.Measurement) { out = append(out, m) })
	if err != nil {
		return nil, fmt.Errorf("storage: read rssi: %w", err)
	}
	return out, nil
}

// WriteEstimateCSV writes positioning estimates as CSV with a header row —
// trajectory records under another name.
func WriteEstimateCSV(w io.Writer, es []positioning.Estimate) error {
	tw, err := NewTrajectoryCSVWriter(w)
	if err != nil {
		return err
	}
	for _, e := range es {
		if err := tw.Write(trajectory.Sample{ObjID: e.ObjID, Loc: e.Loc, T: e.T}); err != nil {
			return err
		}
	}
	return tw.Close()
}

// ReadEstimateCSV parses CSV written by WriteEstimateCSV.
func ReadEstimateCSV(r io.Reader) ([]positioning.Estimate, error) {
	var out []positioning.Estimate
	_, err := Each(newCSVCursor(Trajectory, r, nil, colstore.Predicate{}), func(s trajectory.Sample) {
		out = append(out, positioning.Estimate{ObjID: s.ObjID, Loc: s.Loc, T: s.T})
	})
	if err != nil {
		return nil, fmt.Errorf("storage: read estimate: %w", err)
	}
	return out, nil
}

// WriteProximityCSV writes proximity records as CSV with a header row.
func WriteProximityCSV(w io.Writer, rs []positioning.ProximityRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(proximityCSVHeader); err != nil {
		return fmt.Errorf("storage: write proximity header: %w", err)
	}
	for _, r := range rs {
		rec := []string{strconv.Itoa(r.ObjID), r.DeviceID, fmtF(r.TS), fmtF(r.TE)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: write proximity row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadProximityCSV parses CSV written by WriteProximityCSV.
func ReadProximityCSV(r io.Reader) ([]positioning.ProximityRecord, error) {
	var out []positioning.ProximityRecord
	recs := newCSVRecords(r, proximityCSVHeader)
	for {
		rec, err := recs.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("storage: read proximity: %w", err)
		}
		objID, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("storage: bad o_id %q", rec[0])
		}
		ts, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("storage: bad ts %q", rec[2])
		}
		te, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("storage: bad te %q", rec[3])
		}
		out = append(out, positioning.ProximityRecord{ObjID: objID, DeviceID: rec[1], TS: ts, TE: te})
	}
}

// csvRecords is the one record loop under every CSV reader of the package:
// it yields a stream's data records, one reused buffer at a time.
type csvRecords struct {
	cr     *csv.Reader
	header []string // nil once the first record has been seen
}

// newCSVRecords reads records of len(header) fields from r, where header is
// the row the matching writer emits first.
func newCSVRecords(r io.Reader, header []string) *csvRecords {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(header)
	cr.ReuseRecord = true
	return &csvRecords{cr: cr, header: header}
}

// next returns the next data record, valid until the following call, or
// io.EOF. The first record is skipped only when it is the writer's header
// row: a hand-made file without one keeps its first row.
func (c *csvRecords) next() ([]string, error) {
	rec, err := c.cr.Read()
	if header := c.header; header != nil && err == nil {
		c.header = nil
		if slices.Equal(rec, header) {
			return c.cr.Read()
		}
	}
	return rec, err
}

func parse3(a, b, c string) (float64, float64, float64, error) {
	x, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", a)
	}
	y, err := strconv.ParseFloat(b, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", b)
	}
	t, err := strconv.ParseFloat(c, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", c)
	}
	return x, y, t, nil
}

// fmtF renders floats with exactly 4 decimal places. CSV output is therefore
// LOSSY: coordinates and timestamps are quantized to 1e-4 (0.1 mm / 0.1 ms),
// so a CSV round trip reproduces values only to ±5e-5 — see the tolerance
// test in csv_test.go. Workflows needing bit-exact ground truth should use
// the VTB format (internal/colstore), whose round trip is lossless.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
