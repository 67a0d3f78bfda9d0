package storage

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// writeCSV writes rows through the CSV writer newW makes over w — header
// first — and closes it.
func writeCSV[T any, W RowWriter[T]](newW func(io.Writer) (W, error), w io.Writer, rows []T) error {
	cw, err := newW(w)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	return cw.Close()
}

// drain returns every row of cur, in order, and closes it.
func drain[T any, B colstore.RowBatch[T]](cur Cursor[B]) ([]T, error) {
	var out []T
	for cur.Next() {
		b := cur.Batch()
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
	return out, cur.Close()
}

// readCSV parses the kind's CSV records from r — the record loop under
// OpenCursor's CSV arm. Estimates read as trajectory rows: they share the
// schema.
func readCSV[T any, B colstore.RowBatch[T]](k *Kind[B], r io.Reader) ([]T, error) {
	return drain[T](newCSVCursor(k, r, nil, colstore.Predicate{}))
}

// readFile reads the file at path through OpenCursor.
func readFile[T any, B colstore.RowBatch[T]](k *Kind[B], path string) ([]T, Format, error) {
	cur, format, err := OpenCursor(k, path, colstore.Predicate{})
	if err != nil {
		return nil, format, err
	}
	out, err := drain[T](cur)
	return out, format, err
}

// Exhaustive CSV writer → CSV cursor round-trips: every field must survive,
// including string fields that need CSV quoting and values at the 4-decimal
// precision the writers emit.

func TestTrajectoryCSVRoundTripAllFields(t *testing.T) {
	in := []trajectory.Sample{
		{ObjID: 0, Loc: model.At("office", 0, "F0-HALL.2", geom.Pt(0, 0)), T: 0},
		{ObjID: 41, Loc: model.At("mall, west wing", 3, `P "atrium"`, geom.Pt(12.3456, -7.0001)), T: 359.25},
		{ObjID: 7, Loc: model.At("b", -1, "", geom.Pt(0.0001, 9999.9999)), T: 0.0001},
	}
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ObjID != in[i].ObjID ||
			out[i].Loc.Building != in[i].Loc.Building ||
			out[i].Loc.Floor != in[i].Loc.Floor ||
			out[i].Loc.Partition != in[i].Loc.Partition ||
			out[i].Loc.Point != in[i].Loc.Point ||
			out[i].T != in[i].T {
			t.Errorf("row %d: got %+v, want %+v", i, out[i], in[i])
		}
		if !out[i].Loc.HasPoint {
			t.Errorf("row %d lost HasPoint", i)
		}
	}
}

func TestRSSICSVRoundTripAllFields(t *testing.T) {
	in := []rssi.Measurement{
		{ObjID: 0, DeviceID: "wifi-0", RSSI: -30, T: 0},
		{ObjID: 12, DeviceID: `d,"quoted"`, RSSI: -99.1234, T: 599.5},
		{ObjID: 3, DeviceID: "bt-7", RSSI: 0.0001, T: 0.25},
	}
	var buf bytes.Buffer
	if err := writeCSV(NewRSSICSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[rssi.Measurement](RSSI, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("row %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestEstimateCSVRoundTripAllFields(t *testing.T) {
	in := []positioning.Estimate{
		{ObjID: 5, Loc: model.At("office", 1, "F1-N2.1", geom.Pt(33.25, 17.75)), T: 42.5},
		{ObjID: 6, Loc: model.At("clinic", 0, "waiting, room", geom.Pt(-1.5, 0)), T: 0},
	}
	var buf bytes.Buffer
	if err := WriteEstimateCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ObjID != in[i].ObjID ||
			out[i].Loc.Building != in[i].Loc.Building ||
			out[i].Loc.Floor != in[i].Loc.Floor ||
			out[i].Loc.Partition != in[i].Loc.Partition ||
			out[i].Loc.Point != in[i].Loc.Point ||
			out[i].T != in[i].T {
			t.Errorf("row %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestProximityCSVRoundTripAllFields(t *testing.T) {
	in := []positioning.ProximityRecord{
		{ObjID: 1, DeviceID: "rfid-3", TS: 0, TE: 12.75},
		{ObjID: 2, DeviceID: "rfid-3", TS: 100.0001, TE: 100.0002},
	}
	var buf bytes.Buffer
	if err := WriteProximityCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadProximityCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("row %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestCSVRoundTripGenerated round-trips a larger randomized batch at the
// writers' 4-decimal precision.
func TestCSVRoundTripGenerated(t *testing.T) {
	r := rng.New(99)
	q := func(v float64) float64 { return float64(int(v*10000)) / 10000 } // 4-decimal grid
	in := make([]trajectory.Sample, 500)
	for i := range in {
		in[i] = trajectory.Sample{
			ObjID: r.Intn(50),
			Loc: model.At("office", r.Intn(3), "P", geom.Pt(
				q(r.Range(-100, 100)), q(r.Range(-100, 100)))),
			T: q(r.Range(0, 600)),
		}
	}
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("row %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestCSVEmptyRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if out, err := readCSV[trajectory.Sample](Trajectory, &buf); err != nil || len(out) != 0 {
		t.Fatalf("empty trajectory round trip: %v, %d rows", err, len(out))
	}
	// A completely empty reader (no header) is not an error either.
	if out, err := readCSV[trajectory.Sample](Trajectory, strings.NewReader("")); err != nil || len(out) != 0 {
		t.Fatalf("empty estimate read: %v, %d rows", err, len(out))
	}
}

// TestCSVQuantizationTolerance pins the documented lossiness of the CSV
// codec: appendF4 quantizes to 4 decimal places, so full-precision values come
// back within ±5e-5 but generally not bit-exact. (The VTB codec of
// internal/colstore is the lossless counterpart; see its round-trip tests.)
func TestCSVQuantizationTolerance(t *testing.T) {
	in := []trajectory.Sample{
		{ObjID: 1, Loc: model.At("b", 0, "p", geom.Pt(math.Pi, math.Sqrt2)), T: 1.0 / 3.0},
		{ObjID: 2, Loc: model.At("b", 1, "p", geom.Pt(-math.E, 1e-5)), T: 123.456789},
	}
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readCSV[trajectory.Sample](Trajectory, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 5e-5 // half of the 1e-4 quantum
	exact := true
	for i := range in {
		for _, d := range []float64{
			out[i].Loc.Point.X - in[i].Loc.Point.X,
			out[i].Loc.Point.Y - in[i].Loc.Point.Y,
			out[i].T - in[i].T,
		} {
			if math.Abs(d) > tol {
				t.Errorf("row %d drifted by %g (> %g)", i, d, tol)
			}
			if d != 0 {
				exact = false
			}
		}
	}
	if exact {
		t.Error("full-precision values survived CSV exactly; quantization doc (and this test) are stale")
	}
}

// TestCSVHeaderlessKeepsFirstRow: the first record is skipped only when it is
// the header the matching writer emits. A hand-made file without one must
// keep its first row through every reader — the stream readers and the file
// cursor — and a file with one must still lose exactly the header.
func TestCSVHeaderlessKeepsFirstRow(t *testing.T) {
	const trajBody = "7,hq,1,lobby,1.5000,2.5000,0.0000\n8,hq,1,lobby,3.0000,4.0000,1.0000\n"
	const rssiBody = "7,ap-1,-40.5000,0.0000\n8,ap-2,-50.0000,1.0000\n"
	const proxBody = "7,ap-1,0.0000,2.0000\n8,ap-2,1.0000,3.0000\n"
	for name, tc := range map[string]struct {
		header, body string
		read         func(r io.Reader) (rows int, firstObj int, err error)
	}{
		"trajectory": {strings.Join(TrajectoryCSVHeader, ","), trajBody, func(r io.Reader) (int, int, error) {
			out, err := readCSV[trajectory.Sample](Trajectory, r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
		"rssi": {strings.Join(RSSICSVHeader, ","), rssiBody, func(r io.Reader) (int, int, error) {
			out, err := readCSV[rssi.Measurement](RSSI, r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
		"estimate": {strings.Join(TrajectoryCSVHeader, ","), trajBody, func(r io.Reader) (int, int, error) {
			out, err := readCSV[trajectory.Sample](Trajectory, r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
		"proximity": {strings.Join(proximityCSVHeader, ","), proxBody, func(r io.Reader) (int, int, error) {
			out, err := ReadProximityCSV(r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
	} {
		for _, withHeader := range []bool{false, true} {
			text := tc.body
			if withHeader {
				text = tc.header + "\n" + tc.body
			}
			rows, first, err := tc.read(strings.NewReader(text))
			if err != nil || rows != 2 || first != 7 {
				t.Errorf("%s (header=%v): %d rows, first object %d, err %v; want 2 rows starting at object 7",
					name, withHeader, rows, first, err)
			}
		}
	}

	// The file cursor is the same loop.
	path := filepath.Join(t.TempDir(), "trajectory.csv")
	if err := os.WriteFile(path, []byte(trajBody), 0o644); err != nil {
		t.Fatal(err)
	}
	got, format, err := readFile[trajectory.Sample](Trajectory, path)
	if err != nil || format != FormatCSV || len(got) != 2 || got[0].ObjID != 7 {
		t.Errorf("headerless file: %d rows (%+v), format %s, err %v", len(got), got, format, err)
	}
}

// f4Cases are the values appendF4 is most likely to get wrong: exact ties
// (which round half to even), values a few ulps off a tie, digits that carry
// into a new power of ten, both sides of every power of ten, and the edges
// of the range it formats itself.
func f4Cases() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 0.03125, 0.09375, 9.99995, 99.99995, 999.99995, 0.99995,
		0.00005, 0.00015, 0.00025, 0.0005, 0.00049999, 0.00050001, 0.0009999, 0.00099995,
		1.00005, 2.5e-4, 12.34565, 1234.56785, 9999.99995, 99999.99995, 1e10 - 0.00005,
		99999999999.99995, 1e11, 1.23456789e15, 1e21, 1e300, 5e-5, 1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for e := -6; e <= 16; e++ {
		p := math.Pow(10, float64(e))
		for _, q := range []float64{p, p / 2, p * 0.99995, p - 0.00005, p + 0.00005, p + 0.00015} {
			vs = append(vs, q, math.Nextafter(q, 0), math.Nextafter(q, math.Inf(1)))
		}
	}
	for _, k := range []float64{0, 1, 7, 12345, 99999, 123456789, 1e10, 1e14 - 1} {
		// Ties of the scaled value k + 0.5, and the floats right around them.
		q := (k + 0.5) / 1e4
		vs = append(vs, q, math.Nextafter(q, 0), math.Nextafter(q, math.Inf(1)),
			math.Nextafter(math.Nextafter(q, 0), 0), math.Nextafter(math.Nextafter(q, 2*q), 2*q))
	}
	for i := range 1000 {
		// k·2^-5 is an exact binary fraction: every odd k is an exact tie at
		// the 4th decimal.
		vs = append(vs, float64(i)/32+float64(i%7)*1000)
	}
	n := len(vs)
	for _, v := range vs[:n] {
		vs = append(vs, -v)
	}
	return vs
}

// TestAppendF4MatchesFormatFloat: appendF4 writes exactly what
// strconv.FormatFloat(v, 'f', 4, 64) writes, on the edge cases above and on
// random values across every magnitude it formats itself.
func TestAppendF4MatchesFormatFloat(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	vs := f4Cases()
	for range 200000 {
		vs = append(vs, (r.Float64()*2-1)*math.Pow(10, float64(r.IntN(17)-5)))
	}
	for _, v := range vs {
		if got, want := string(appendF4(nil, v)), strconv.FormatFloat(v, 'f', 4, 64); got != want {
			t.Fatalf("appendF4(%v) = %q, FormatFloat gives %q", v, got, want)
		}
	}
}

func FuzzFormatF4(f *testing.F) {
	for _, v := range f4Cases() {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if got, want := string(appendF4([]byte("x"), v)), "x"+strconv.FormatFloat(v, 'f', 4, 64); got != want {
			t.Fatalf("appendF4(%v) = %q, FormatFloat gives %q", v, got, want)
		}
	})
}

// BenchmarkFormatF4 times one 4-decimal rendering of a typical coordinate,
// timestamp or RSSI value, against the FormatFloat call it replaces.
func BenchmarkFormatF4(b *testing.B) {
	vs := []float64{12.3456789, 1799.25, -63.18274, 0.5, 245.0001}
	b.Run("appendF4", func(b *testing.B) {
		buf := make([]byte, 0, 32)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendF4(buf[:0], vs[i%len(vs)])
		}
	})
	b.Run("FormatFloat", func(b *testing.B) {
		buf := make([]byte, 0, 32)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i%len(vs)], 'f', 4, 64)
		}
	})
}

// TestCSVWritersMatchEncodingCSV: the record writers lay rows out exactly as
// encoding/csv.Writer does with FormatFloat numbers, including every field
// csv.Writer quotes.
func TestCSVWritersMatchEncodingCSV(t *testing.T) {
	fields := []string{
		"", "plain", `\.`, ` lead`, "\tlead", "\u00a0nbsp", "trail ", "a,b", `a"b`, `"`,
		"a\nb", "a\r\nb", "\r", "ü-umlaut", "\xff", "\xff,", "-", "+Inf",
	}
	var ms []rssi.Measurement
	var want bytes.Buffer
	ref := csv.NewWriter(&want)
	ref.Write(RSSICSVHeader)
	vs := f4Cases()
	for i, d := range fields {
		m := rssi.Measurement{ObjID: i - 3, DeviceID: d, RSSI: vs[i], T: vs[len(vs)-1-i]}
		ms = append(ms, m)
		ref.Write([]string{strconv.Itoa(m.ObjID), m.DeviceID,
			strconv.FormatFloat(m.RSSI, 'f', 4, 64), strconv.FormatFloat(m.T, 'f', 4, 64)})
	}
	ref.Flush()
	var got bytes.Buffer
	if err := writeCSV(NewRSSICSVWriter, &got, ms); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("RSSICSVWriter wrote\n%q\nencoding/csv writes\n%q", got.String(), want.String())
	}

	var ss []trajectory.Sample
	want.Reset()
	ref = csv.NewWriter(&want)
	ref.Write(TrajectoryCSVHeader)
	for i, d := range fields {
		s := trajectory.Sample{ObjID: i, Loc: model.At(d, i-2, fields[len(fields)-1-i], geom.Pt(vs[i], -vs[i+1])), T: vs[i+2]}
		ss = append(ss, s)
		ref.Write([]string{strconv.Itoa(s.ObjID), s.Loc.Building, strconv.Itoa(s.Loc.Floor), s.Loc.Partition,
			strconv.FormatFloat(s.Loc.Point.X, 'f', 4, 64), strconv.FormatFloat(s.Loc.Point.Y, 'f', 4, 64),
			strconv.FormatFloat(s.T, 'f', 4, 64)})
	}
	ref.Flush()
	got.Reset()
	if err := writeCSV(NewTrajectoryCSVWriter, &got, ss); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("TrajectoryCSVWriter wrote\n%q\nencoding/csv writes\n%q", got.String(), want.String())
	}
}
