package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// runConvert invokes run() with a fresh flag set, the way main does.
func runConvert(args ...string) error {
	flag.CommandLine = flag.NewFlagSet("vitaconvert", flag.ContinueOnError)
	os.Args = append([]string{"vitaconvert"}, args...)
	return run()
}

func makeSamples() []trajectory.Sample {
	var out []trajectory.Sample
	for i := 0; i < 5000; i++ {
		out = append(out, trajectory.Sample{
			ObjID: i % 17,
			Loc: model.At("hq", i%3, []string{"lobby", "atrium"}[i%2],
				geom.Pt(float64(i%40)+0.125, float64(i%25)+0.25)),
			T: float64(i / 17),
		})
	}
	return out
}

func writeVTB(t *testing.T, path string, samples []trajectory.Sample, opts colstore.Options) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := colstore.NewTrajectoryWriter(f, opts)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readTrajectory returns every row of the trajectory file at path, read
// through storage.OpenCursor, which must detect want as its format.
func readTrajectory(t *testing.T, path string, want storage.Format) []trajectory.Sample {
	t.Helper()
	cur, format, err := storage.OpenCursor(storage.Trajectory, path, colstore.Predicate{})
	if err != nil || format != want {
		t.Fatalf("read %s: format %q (want %q), err %v", path, format, want, err)
	}
	var got []trajectory.Sample
	for cur.Next() {
		got = cur.Batch().AppendTo(got)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return got
}

// flateDir holds a dataset written while flate was the default block codec,
// with the CSV twins its VTB files were encoded from.
var flateDir = filepath.Join("..", "..", "internal", "colstore", "testdata", "flate")

// firstBlockCodec reads the codec byte of a VTB file's first block frame:
// header (8 bytes) | storedLen (u32) | codec (u8) | ...
func firstBlockCodec(t *testing.T, path string) byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data[12]
}

// sameFile fails unless the two files hold the same bytes.
func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s (%d bytes) differs from %s (%d bytes)", got, len(g), want, len(w))
	}
}

// TestRecompressRoundTrip pins the VTB → VTB migration path: recompressing
// a flate-era file under the default codec (vsnap) must preserve every row
// bit-for-bit while actually changing the block codec on disk. The flate-era
// files themselves must decode to exactly their CSV twins.
func TestRecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(flateDir, "trajectory.vtb")
	if codec := firstBlockCodec(t, in); codec != 1 {
		t.Fatalf("fixture first block codec = %d, want 1 (flate)", codec)
	}
	samples := readTrajectory(t, filepath.Join(flateDir, "trajectory.csv"), storage.FormatCSV)

	out := filepath.Join(dir, "out.vtb")
	if err := runConvert("-in", in, "-out", out); err != nil {
		t.Fatalf("convert: %v", err)
	}
	for _, path := range []string{in, out} {
		got := readTrajectory(t, path, storage.FormatVTB)
		if len(got) != len(samples) {
			t.Fatalf("%s has %d rows, its CSV twin %d", path, len(got), len(samples))
		}
		for i := range got {
			if got[i] != samples[i] {
				t.Fatalf("%s: row %d is %+v, the CSV twin has %+v", path, i, got[i], samples[i])
			}
		}
	}
	// The first block frame's codec byte must now be vsnap (2), not flate.
	if codec := firstBlockCodec(t, out); codec != 2 {
		t.Fatalf("recompressed first block codec = %d, want 2 (vsnap)", codec)
	}

	// Both flate-era row kinds convert back to their CSV twins byte for byte.
	for _, kind := range []string{"trajectory", "rssi"} {
		csv := filepath.Join(dir, kind+".csv")
		if err := runConvert("-in", filepath.Join(flateDir, kind+".vtb"), "-out", csv); err != nil {
			t.Fatalf("convert %s: %v", kind, err)
		}
		sameFile(t, csv, filepath.Join(flateDir, kind+".csv"))
	}
}

// TestSameFileRefused pins that converting a file onto itself — named the
// same way, spelled another way, or through a symlink — fails before the
// output is created, for both input formats, and leaves the input
// byte-identical.
func TestSameFileRefused(t *testing.T) {
	t.Chdir(t.TempDir())
	writeVTB(t, "x.vtb", makeSamples(), colstore.Options{})
	if err := runConvert("-in", "x.vtb", "-out", "x.csv"); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"x.vtb", "x.csv"} {
		want, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		link := "link" + filepath.Ext(in)
		if err := os.Symlink(in, link); err != nil {
			t.Fatal(err)
		}
		for _, out := range []string{in, "./" + in, link} {
			if err := runConvert("-in", in, "-out", out); err == nil {
				t.Errorf("-in %s -out %s succeeded", in, out)
			}
			got, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("-in %s -out %s left %d of its %d bytes", in, out, len(got), len(want))
			}
		}
	}
}
