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

// TestRecompressRoundTrip pins the VTB → VTB migration path: recompressing
// a flate-era file with -codec vsnap must preserve every row bit-for-bit
// while actually changing the block codec on disk.
func TestRecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	samples := makeSamples()
	in := filepath.Join(dir, "in.vtb")
	writeVTB(t, in, samples, colstore.Options{BlockSize: 512, Codec: colstore.CodecFlate})

	out := filepath.Join(dir, "out.vtb")
	if err := runConvert("-in", in, "-out", out, "-codec", "vsnap"); err != nil {
		t.Fatalf("convert: %v", err)
	}

	got := readAllVTB(t, out)
	if len(got) != len(samples) {
		t.Fatalf("recompressed file has %d rows, want %d", len(got), len(samples))
	}
	for i := range got {
		if got[i] != samples[i] {
			t.Fatalf("row %d differs after recompression: got %+v, want %+v", i, got[i], samples[i])
		}
	}

	// The first block frame's codec byte must now be vsnap (2), not flate.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if codec := data[12]; codec != 2 {
		t.Fatalf("recompressed first block codec = %d, want 2 (vsnap)", codec)
	}
	// And converting back to flate must round-trip too.
	back := filepath.Join(dir, "back.vtb")
	if err := runConvert("-in", out, "-out", back, "-codec", "flate"); err != nil {
		t.Fatalf("convert back: %v", err)
	}
	if got := readAllVTB(t, back); len(got) != len(samples) {
		t.Fatalf("flate round trip has %d rows, want %d", len(got), len(samples))
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

	err := runConvert("-in", in, "-out", out, "-codec", "zstd")
	if err == nil {
		t.Fatal("unknown codec accepted")
	}
	for _, want := range []string{"zstd", "raw", "vsnap", "flate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Errorf("refused conversion left output file behind (stat err %v)", serr)
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
