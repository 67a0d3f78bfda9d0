package storage

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

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
	cw *csvWriter
}

// NewTrajectoryCSVWriter returns a streaming writer, having written the
// header row.
func NewTrajectoryCSVWriter(w io.Writer) (*TrajectoryCSVWriter, error) {
	cw := newCSVWriter(w)
	if err := cw.record(TrajectoryCSVHeader...); err != nil {
		return nil, fmt.Errorf("storage: write trajectory header: %w", err)
	}
	return &TrajectoryCSVWriter{cw: cw}, nil
}

// Write appends one sample row.
func (w *TrajectoryCSVWriter) Write(s trajectory.Sample) error {
	c := w.cw
	c.num(s.ObjID)
	c.str(s.Loc.Building)
	c.num(s.Loc.Floor)
	c.str(s.Loc.Partition)
	c.f4(s.Loc.Point.X)
	c.f4(s.Loc.Point.Y)
	c.f4(s.T)
	if err := c.end(); err != nil {
		return fmt.Errorf("storage: write trajectory row: %w", err)
	}
	return nil
}

// Close flushes buffered rows.
func (w *TrajectoryCSVWriter) Close() error { return w.cw.bw.Flush() }

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

// RSSICSVWriter streams RSSI measurements as CSV rows; see
// TrajectoryCSVWriter for the streaming contract.
type RSSICSVWriter struct {
	cw *csvWriter
}

// NewRSSICSVWriter returns a streaming writer, having written the header
// row.
func NewRSSICSVWriter(w io.Writer) (*RSSICSVWriter, error) {
	cw := newCSVWriter(w)
	if err := cw.record(RSSICSVHeader...); err != nil {
		return nil, fmt.Errorf("storage: write rssi header: %w", err)
	}
	return &RSSICSVWriter{cw: cw}, nil
}

// Write appends one measurement row.
func (w *RSSICSVWriter) Write(m rssi.Measurement) error {
	c := w.cw
	c.num(m.ObjID)
	c.str(m.DeviceID)
	c.f4(m.RSSI)
	c.f4(m.T)
	if err := c.end(); err != nil {
		return fmt.Errorf("storage: write rssi row: %w", err)
	}
	return nil
}

// Close flushes buffered rows.
func (w *RSSICSVWriter) Close() error { return w.cw.bw.Flush() }

// parseRSSIRecord converts one post-header CSV record to a measurement.
func parseRSSIRecord(rec []string) (rssi.Measurement, error) {
	objID, err := strconv.Atoi(rec[0])
	if err != nil {
		return rssi.Measurement{}, fmt.Errorf("storage: bad o_id %q", rec[0])
	}
	v, ok := parseFinite(rec[2])
	if !ok {
		return rssi.Measurement{}, fmt.Errorf("storage: bad rssi %q", rec[2])
	}
	t, ok := parseFinite(rec[3])
	if !ok {
		return rssi.Measurement{}, fmt.Errorf("storage: bad t %q", rec[3])
	}
	return rssi.Measurement{ObjID: objID, DeviceID: rec[1], RSSI: v, T: t}, nil
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

// WriteProximityCSV writes proximity records as CSV with a header row.
func WriteProximityCSV(w io.Writer, rs []positioning.ProximityRecord) error {
	cw := newCSVWriter(w)
	if err := cw.record(proximityCSVHeader...); err != nil {
		return fmt.Errorf("storage: write proximity header: %w", err)
	}
	for _, r := range rs {
		cw.num(r.ObjID)
		cw.str(r.DeviceID)
		cw.f4(r.TS)
		cw.f4(r.TE)
		if err := cw.end(); err != nil {
			return fmt.Errorf("storage: write proximity row: %w", err)
		}
	}
	return cw.bw.Flush()
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
		ts, ok := parseFinite(rec[2])
		if !ok {
			return nil, fmt.Errorf("storage: bad ts %q", rec[2])
		}
		te, ok := parseFinite(rec[3])
		if !ok {
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
	x, ok := parseFinite(a)
	if !ok {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", a)
	}
	y, ok := parseFinite(b)
	if !ok {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", b)
	}
	t, ok := parseFinite(c)
	if !ok {
		return 0, 0, 0, fmt.Errorf("storage: bad number %q", c)
	}
	return x, y, t, nil
}

// parseFinite is strconv.ParseFloat minus NaN and ±Inf, which it accepts but
// no writer of these formats emits: a row holding one is not a row of ours.
func parseFinite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// csvWriter lays records out byte for byte as encoding/csv.Writer does in
// its default configuration — comma-separated, "\n"-terminated, a field
// quoted (its quotes doubled) when it holds a comma, a quote, "\r" or "\n",
// starts with a space, or is `\.` — but appends each field to one reused line,
// so a row costs no []string and a number no string. Add a record's fields
// with str, num and f4 in order, then end it.
type csvWriter struct {
	bw     *bufio.Writer
	line   []byte
	fields int
}

func newCSVWriter(w io.Writer) *csvWriter { return &csvWriter{bw: bufio.NewWriter(w)} }

func (c *csvWriter) sep() {
	if c.fields > 0 {
		c.line = append(c.line, ',')
	}
	c.fields++
}

// str adds a text field, quoted when csv.Writer would quote it.
func (c *csvWriter) str(s string) {
	c.sep()
	if !csvNeedsQuotes(s) {
		c.line = append(c.line, s...)
		return
	}
	c.line = append(c.line, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			c.line = append(c.line, '"')
		}
		c.line = append(c.line, s[i])
	}
	c.line = append(c.line, '"')
}

// num adds an integer field.
func (c *csvWriter) num(v int) {
	c.sep()
	c.line = strconv.AppendInt(c.line, int64(v), 10)
}

// f4 adds a float field with exactly 4 decimal places (see appendF4).
func (c *csvWriter) f4(v float64) {
	c.sep()
	c.line = appendF4(c.line, v)
}

// end writes the record to the buffer.
func (c *csvWriter) end() error {
	c.line = append(c.line, '\n')
	_, err := c.bw.Write(c.line)
	c.line, c.fields = c.line[:0], 0
	return err
}

// record writes a record of text fields.
func (c *csvWriter) record(fields ...string) error {
	for _, f := range fields {
		c.str(f)
	}
	return c.end()
}

// csvNeedsQuotes is encoding/csv.Writer's quoting rule for a comma
// separator.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\r' || c == '\n' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// appendF4 appends v with exactly 4 decimal places, byte-identical to
// strconv.FormatFloat(v, 'f', 4, 64). CSV output is therefore LOSSY:
// coordinates and timestamps are quantized to 1e-4 (0.1 mm / 0.1 ms), so a
// CSV round trip reproduces values only to ±5e-5 — see the tolerance test in
// csv_test.go. Workflows needing bit-exact ground truth should use the VTB
// format (internal/colstore), whose round trip is lossless.
//
// FormatFloat's 'f' format with a fixed precision always takes strconv's
// slow arbitrary-precision path. For |v| < 1e11 appendF4 scales instead:
// p = |v|·10⁴ is off the exact product by less than p·2⁻⁵², so unless p's
// fraction lies that close to one half, p rounds to the same integer as the
// exact product does, and that integer's digits are the answer. Near-ties
// (exact ones included, which FormatFloat rounds half to even), larger
// values, NaN and ±Inf take FormatFloat's path.
func appendF4(b []byte, v float64) []byte {
	p := math.Abs(v) * 1e4
	n := math.Floor(p)
	frac := p - n // exact: p < 2^50
	if !(p < 1e15) || math.Abs(frac-0.5) <= p*0x1p-52 {
		return strconv.AppendFloat(b, v, 'f', 4, 64)
	}
	if frac > 0.5 {
		n++
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	var buf [20]byte
	d := strconv.AppendUint(buf[:0], uint64(n), 10)
	if k := len(d) - 4; k > 0 {
		b = append(b, d[:k]...)
		b = append(b, '.')
		return append(b, d[k:]...)
	}
	b = append(b, "0.0000"[:6-len(d)]...) // "0." and the decimals' leading zeros
	return append(b, d...)
}
