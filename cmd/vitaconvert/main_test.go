package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
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

func readAllVTB(t *testing.T, path string) []trajectory.Sample {
	t.Helper()
	got, format, err := storage.ReadTrajectoryFile(path)
	if err != nil || format != storage.FormatVTB {
		t.Fatalf("read %s: format %q, err %v", path, format, err)
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
// a flate-era file with -codec vsnap must preserve every row bit-for-bit
// while actually changing the block codec on disk. The flate-era files
// themselves must decode to exactly their CSV twins.
func TestRecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(flateDir, "trajectory.vtb")
	if codec := firstBlockCodec(t, in); codec != 1 {
		t.Fatalf("fixture first block codec = %d, want 1 (flate)", codec)
	}
	samples, _, err := storage.ReadTrajectoryFile(filepath.Join(flateDir, "trajectory.csv"))
	if err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.vtb")
	if err := runConvert("-in", in, "-out", out, "-codec", "vsnap"); err != nil {
		t.Fatalf("convert: %v", err)
	}
	for _, path := range []string{in, out} {
		got := readAllVTB(t, path)
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

// TestUnknownCodecRefused pins the CLI contract: an unknown codec name must
// fail up front with an error that lists the valid names, and must not
// leave a partial output file behind.
func TestUnknownCodecRefused(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.vtb")
	writeVTB(t, in, makeSamples()[:100], colstore.Options{})
	out := filepath.Join(dir, "out.vtb")

	// flate is read, never written: it is refused like any unknown name.
	for _, codec := range []string{"zstd", "flate"} {
		err := runConvert("-in", in, "-out", out, "-codec", codec)
		if err == nil {
			t.Fatalf("codec %q accepted", codec)
		}
		for _, want := range []string{codec, "valid: raw, vsnap)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Errorf("refused conversion left output file behind (stat err %v)", serr)
		}
	}
}

// TestCodecRejectedForCSV pins the other refusal: -codec with a .csv output
// is a contradiction and must error rather than be silently ignored.
func TestCodecRejectedForCSV(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.vtb")
	writeVTB(t, in, makeSamples()[:100], colstore.Options{})

	err := runConvert("-in", in, "-out", filepath.Join(dir, "out.csv"), "-codec", "vsnap")
	if err == nil || !strings.Contains(err.Error(), "csv") && !strings.Contains(err.Error(), "CSV") {
		t.Fatalf("want csv-refusal error, got %v", err)
	}
}
