package serve

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vita/internal/colstore"
	"vita/internal/seglog"
	"vita/internal/storage"
)

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
// eras (the flate-era fixture log, then vsnap) must serve
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
	// The fixture spans one minute; the vsnap era repeats its rows one
	// minute after another, three segments, so every probe in operatorText
	// lands on data.
	era := readTrajectoryFile(t, filepath.Join(fixture, "trajectory.csv"))
	all := slices.Clone(era)
	for k := 1; k <= 3; k++ {
		for _, s := range era {
			s.T += 60 * float64(k)
			all = append(all, s)
		}
	}
	w, err := seglog.NewTrajectoryWriter(l, seglog.WriterOptions{
		MaxSegmentRows: len(era),
		Block:          colstore.Options{BlockSize: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all[len(era):] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
	check("mixed-codec eras", 6)

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
