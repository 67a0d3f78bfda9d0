package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

func autoSamples() []trajectory.Sample {
	var out []trajectory.Sample
	for i := 0; i < 300; i++ {
		out = append(out, trajectory.Sample{
			ObjID: i % 6,
			Loc:   model.At("b", i%2, "p", geom.Pt(float64(i%40), 2.25)),
			T:     float64(i / 6),
		})
	}
	return out
}

// writeBoth materializes the same samples in both formats, with a
// deliberately misleading extension on the VTB file to prove detection is by
// magic bytes.
func writeBoth(t *testing.T) (csvPath, vtbPath string, samples []trajectory.Sample) {
	t.Helper()
	samples = autoSamples()
	dir := t.TempDir()

	csvPath = filepath.Join(dir, "trajectory.csv")
	var buf bytes.Buffer
	if err := writeCSV(NewTrajectoryCSVWriter, &buf, samples); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	vtbPath = filepath.Join(dir, "actually-vtb.csv")
	var vbuf bytes.Buffer
	w := colstore.NewTrajectoryWriter(&vbuf, colstore.Options{BlockSize: 50})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vtbPath, vbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, vtbPath, samples
}

func TestDetectFormatByMagic(t *testing.T) {
	csvPath, vtbPath, _ := writeBoth(t)
	if f, err := DetectFormat(csvPath); err != nil || f != FormatCSV {
		t.Errorf("DetectFormat(csv) = %v, %v", f, err)
	}
	// Extension says .csv, magic says VTB: magic must win.
	if f, err := DetectFormat(vtbPath); err != nil || f != FormatVTB {
		t.Errorf("DetectFormat(vtb-with-csv-extension) = %v, %v", f, err)
	}
}

// TestScanTrajectoryFileFormatAgnostic runs the same predicate over both
// encodings of one dataset through OpenCursor: matched rows must agree (up to CSV
// quantization, which the integer-valued fixture sidesteps), and only the
// VTB path may prune blocks.
func TestScanTrajectoryFileFormatAgnostic(t *testing.T) {
	csvPath, vtbPath, samples := writeBoth(t)
	pred := colstore.Predicate{HasTime: true, T0: 10, T1: 20}

	var want []trajectory.Sample
	for _, s := range samples {
		if s.T >= 10 && s.T <= 20 {
			want = append(want, s)
		}
	}

	for _, tc := range []struct {
		path   string
		format Format
	}{
		{csvPath, FormatCSV},
		{vtbPath, FormatVTB},
	} {
		cur, format, err := OpenCursor(Trajectory, tc.path, pred, colstore.OpenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		got, err := drain[trajectory.Sample](cur)
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		stats := cur.Stats()
		if format != tc.format {
			t.Errorf("%s: detected format %s", tc.format, format)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: matched %d rows, want %d", tc.format, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %+v, want %+v", tc.format, i, got[i], want[i])
			}
		}
		if tc.format == FormatVTB && stats.BlocksPruned == 0 {
			t.Errorf("VTB scan pruned no blocks: %+v", stats)
		}
		if tc.format == FormatCSV && stats.BlocksTotal != 0 {
			t.Errorf("CSV scan reported blocks: %+v", stats)
		}
	}
}

func TestReadRSSIFileBothFormats(t *testing.T) {
	ms := []rssi.Measurement{
		{ObjID: 1, DeviceID: "wifi-1", RSSI: -42.5, T: 0.5},
		{ObjID: 2, DeviceID: "wifi-2", RSSI: -77.25, T: 1},
	}
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "rssi.csv")
	var buf bytes.Buffer
	if err := writeCSV(NewRSSICSVWriter, &buf, ms); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	vtbPath := filepath.Join(dir, "rssi.vtb")
	var vbuf bytes.Buffer
	w := colstore.NewRSSIWriter(&vbuf, colstore.Options{})
	for _, m := range ms {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vtbPath, vbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{csvPath, vtbPath} {
		got, _, err := readFile[rssi.Measurement](RSSI, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != len(ms) {
			t.Fatalf("%s: read %d rows, want %d", path, len(got), len(ms))
		}
		for i := range got {
			if got[i] != ms[i] {
				t.Fatalf("%s: row %d = %+v, want %+v", path, i, got[i], ms[i])
			}
		}
	}
}
