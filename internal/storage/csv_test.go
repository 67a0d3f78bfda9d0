package storage

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// Exhaustive Write*CSV → Read*CSV round-trips: every field must survive,
// including string fields that need CSV quoting and values at the 4-decimal
// precision the writers emit.

func TestTrajectoryCSVRoundTripAllFields(t *testing.T) {
	in := []trajectory.Sample{
		{ObjID: 0, Loc: model.At("office", 0, "F0-HALL.2", geom.Pt(0, 0)), T: 0},
		{ObjID: 41, Loc: model.At("mall, west wing", 3, `P "atrium"`, geom.Pt(12.3456, -7.0001)), T: 359.25},
		{ObjID: 7, Loc: model.At("b", -1, "", geom.Pt(0.0001, 9999.9999)), T: 0.0001},
	}
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrajectoryCSV(&buf)
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
	if err := WriteRSSICSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRSSICSV(&buf)
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
	out, err := ReadEstimateCSV(&buf)
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
	if err := WriteTrajectoryCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrajectoryCSV(&buf)
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
	if err := WriteTrajectoryCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if out, err := ReadTrajectoryCSV(&buf); err != nil || len(out) != 0 {
		t.Fatalf("empty trajectory round trip: %v, %d rows", err, len(out))
	}
	// A completely empty reader (no header) is not an error either.
	if out, err := ReadEstimateCSV(strings.NewReader("")); err != nil || len(out) != 0 {
		t.Fatalf("empty estimate read: %v, %d rows", err, len(out))
	}
}

// TestCSVQuantizationTolerance pins the documented lossiness of the CSV
// codec: fmtF quantizes to 4 decimal places, so full-precision values come
// back within ±5e-5 but generally not bit-exact. (The VTB codec of
// internal/colstore is the lossless counterpart; see its round-trip tests.)
func TestCSVQuantizationTolerance(t *testing.T) {
	in := []trajectory.Sample{
		{ObjID: 1, Loc: model.At("b", 0, "p", geom.Pt(math.Pi, math.Sqrt2)), T: 1.0 / 3.0},
		{ObjID: 2, Loc: model.At("b", 1, "p", geom.Pt(-math.E, 1e-5)), T: 123.456789},
	}
	var buf bytes.Buffer
	if err := WriteTrajectoryCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrajectoryCSV(&buf)
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
			out, err := ReadTrajectoryCSV(r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
		"rssi": {strings.Join(RSSICSVHeader, ","), rssiBody, func(r io.Reader) (int, int, error) {
			out, err := ReadRSSICSV(r)
			if len(out) == 0 {
				return 0, 0, err
			}
			return len(out), out[0].ObjID, err
		}},
		"estimate": {strings.Join(TrajectoryCSVHeader, ","), trajBody, func(r io.Reader) (int, int, error) {
			out, err := ReadEstimateCSV(r)
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
	got, format, err := ReadTrajectoryFile(path)
	if err != nil || format != FormatCSV || len(got) != 2 || got[0].ObjID != 7 {
		t.Errorf("headerless file: %d rows (%+v), format %s, err %v", len(got), got, format, err)
	}
}
