package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vita/internal/colstore"
	"vita/internal/seglog"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// appendSegmentedCodec is appendSegmented with an explicit block codec, so a
// test can grow one log across codec eras.
func appendSegmentedCodec(t *testing.T, l *seglog.Log, samples []trajectory.Sample, maxRows int, codec colstore.Codec) {
	t.Helper()
	w, err := seglog.NewTrajectoryWriter(l, seglog.WriterOptions{
		MaxSegmentRows: maxRows,
		Block:          colstore.Options{BlockSize: 512, Codec: codec},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// firstBlockCodec reads the codec byte of the first block frame of a VTB
// file: header (8 bytes) | storedLen (u32) | codec (u8) | ...
func firstBlockCodec(t *testing.T, path string) byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 13 {
		t.Fatalf("%s: too short (%d bytes)", path, len(data))
	}
	return data[12]
}

// TestMixedCodecSegmentsServeParity is the serving gate for codec
// migration: one segment log whose segments were written in different codec
// eras (the flate-era fixture log, then raw, then vsnap) must serve
// byte-identical operator output to a flat single-file dataset of the same
// rows — and compacting that mixed log must both preserve the output and
// rewrite the merged segment under the current default codec (vsnap), which
// is exactly the migration path for flate-era archives.
func TestMixedCodecSegmentsServeParity(t *testing.T) {
	const fixture = "../colstore/testdata/flate"
	segDir := t.TempDir()
	logDir := filepath.Join(segDir, "seglog", "trajectory")
	if err := os.CopyFS(logDir, os.DirFS(filepath.Join(fixture, "seglog"))); err != nil {
		t.Fatal(err)
	}
	l, err := seglog.Open(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range l.Snapshot().Segments {
		if got := firstBlockCodec(t, l.SegmentPath(seg)); got != 1 {
			t.Fatalf("fixture segment %s: first block codec = %d, want 1 (flate)", seg.File, got)
		}
	}
	// The fixture spans one minute; the later eras repeat its rows one
	// minute after another, three segments each, so every probe in
	// operatorText lands on data.
	era := readTrajectoryFile(t, filepath.Join(fixture, "trajectory.csv"))
	all := slices.Clone(era)
	for _, codec := range []colstore.Codec{colstore.CodecRaw, colstore.CodecVSnap} {
		var rows []trajectory.Sample
		for range 3 {
			shift := 60 * float64(len(all)/len(era))
			for _, s := range era {
				s.T += shift
				rows = append(rows, s)
				all = append(all, s)
			}
		}
		appendSegmentedCodec(t, l, rows, len(era), codec)
	}

	flatDir := t.TempDir()
	writeDataset(t, flatDir, storage.FormatVTB, all)
	flat, err := Open(flatDir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := operatorText(t, flat)
	flat.Close()

	check := func(label string, wantSegs int) {
		t.Helper()
		ds, err := Open(segDir, Config{WatchInterval: -1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer ds.Close()
		if got := ds.Segments(); got != wantSegs {
			t.Errorf("%s: segments = %d, want %d", label, got, wantSegs)
		}
		if got := operatorText(t, ds); got != want {
			t.Errorf("%s: operator output differs from single file\n got: %q\nwant: %q",
				label, got[:min(len(got), 400)], want[:min(len(want), 400)])
		}
	}
	check("mixed-codec eras", 9)

	// Compaction with default options: the merged segment must come out
	// under the default codec regardless of what the inputs used.
	meta, err := seglog.NewCompactor(l, seglog.CompactorOptions{MinSegments: 2}).RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("compaction: %+v, %v", meta, err)
	}
	merged := filepath.Join(l.Dir(), meta.File)
	if got := firstBlockCodec(t, merged); got != 2 {
		t.Errorf("merged segment's first block codec = %d, want 2 (vsnap)", got)
	}
	check("post-compaction", 1)
}
