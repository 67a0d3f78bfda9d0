package colstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vita/internal/trajectory"
)

// writeTrajectoryFile persists a VTB image for the file-based open paths.
func writeTrajectoryFile(t *testing.T, samples []trajectory.Sample, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trajectory.vtb")
	if err := os.WriteFile(path, writeTrajectory(t, samples, opts), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// preadFile opens path for a pread-backed reader (NewTrajectoryReader or
// newRSSIReader over the *os.File), which does not own the file; the test's
// cleanup closes it.
func preadFile(t *testing.T, path string) (*os.File, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return f, st.Size()
}

// openTrajectoryBoth opens path on both read paths: OpenTrajectory (mapped
// where the platform allows) and a pread reader over the file.
func openTrajectoryBoth(t *testing.T, path string) map[string]func() (*TrajectoryReader, error) {
	return map[string]func() (*TrajectoryReader, error){
		"mmap": func() (*TrajectoryReader, error) { return OpenTrajectory(path, OpenOptions{}) },
		"pread": func() (*TrajectoryReader, error) {
			f, size := preadFile(t, path)
			return NewTrajectoryReader(f, size)
		},
	}
}

// TestMmapMatchesReaderAt opens the same file mmap-backed and pread-backed
// and requires bit-identical rows and identical stats from both.
func TestMmapMatchesReaderAt(t *testing.T) {
	samples := gridSamples(8, 500)
	// Small blocks without compression maximize the zero-copy raw-codec
	// path; a second pass with compression covers the inflate path.
	for _, opts := range []Options{{BlockSize: 128, Codec: CodecRaw}, {BlockSize: 128}} {
		path := writeTrajectoryFile(t, samples, opts)

		mm, err := OpenTrajectory(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		f, size := preadFile(t, path)
		pr, err := NewTrajectoryReader(f, size)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Close()

		if mm.Mmapped() != mmapAvailable {
			t.Errorf("default open: Mmapped() = %v, platform support = %v", mm.Mmapped(), mmapAvailable)
		}
		if pr.Mmapped() {
			t.Error("a reader over an *os.File reports Mmapped()")
		}

		pred := timeWindow(50, 220)
		want, wantStats, err := drain(pr.Cursor(pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("window matched nothing")
		}
		got, gotStats, err := drain(mm.Cursor(pred))
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Errorf("stats differ: mmap %+v, pread %+v", gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("mmap scan yielded %d rows, pread %d", len(got), len(want))
		}
		for i := range got {
			if !sampleEqual(got[i], want[i]) {
				t.Fatalf("row %d differs between mmap and pread", i)
			}
		}
	}
}

// TestScanAfterClose pins the unmap-after-close contract: operations that
// would touch the (now unmapped) region fail with an error instead of
// crashing, on both open paths; data decoded before Close stays valid.
func TestScanAfterClose(t *testing.T) {
	samples := gridSamples(4, 300)
	path := writeTrajectoryFile(t, samples, Options{BlockSize: 64})
	for arm, open := range openTrajectoryBoth(t, path) {
		r, err := open()
		if err != nil {
			t.Fatal(err)
		}
		// Decode something first; it must survive Close.
		block, err := r.DecodeBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		rows := block.AppendTo(nil)
		cur := r.Cursor(Predicate{})
		if !cur.Next() {
			t.Fatalf("first Next failed: %v", cur.Err())
		}
		kept := cur.Batch().AppendTo(nil)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := drain(r.Cursor(Predicate{})); err == nil {
			t.Errorf("%s: a new cursor after Close succeeded", arm)
		}
		if _, err := r.DecodeBlock(0); err == nil {
			t.Errorf("%s: DecodeBlock after Close succeeded", arm)
		}
		if cur.Next() {
			t.Errorf("%s: cursor Next after Close succeeded", arm)
		} else if cur.Err() == nil {
			t.Errorf("%s: cursor Next after Close reported no error", arm)
		}
		for i := range rows {
			if !sampleEqual(rows[i], samples[i]) {
				t.Fatalf("pre-Close DecodeBlock row %d corrupted after Close", i)
			}
		}
		for i := range kept {
			if !sampleEqual(kept[i], samples[i]) {
				t.Fatalf("pre-Close batch row %d corrupted after Close", i)
			}
		}
		if err := r.Close(); err != nil {
			t.Errorf("%s: second Close: %v", arm, err)
		}
	}
}

// TestOpenBadFiles covers zero-length, truncated, and corrupt files on both
// open paths: every case must fail cleanly at open (mmap of an empty file is
// impossible, so the default path must fall back and still report the format
// error).
func TestOpenBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := writeTrajectory(t, gridSamples(2, 100), Options{BlockSize: 32})
	cases := map[string][]byte{
		"empty":      {},
		"tiny":       []byte("VT"),
		"not-vtb":    []byte("o_id,building,floor,partition,x,y,t\n1,b,0,p,1,2,3\n"),
		"truncated":  good[:len(good)/2],
		"bad-footer": append(append([]byte{}, good[:len(good)-4]...), 'X', 'X', 'X', 'X'),
	}
	for name, data := range cases {
		path := write(name, data)
		for arm, open := range openTrajectoryBoth(t, path) {
			if r, err := open(); err == nil {
				r.Close()
				t.Errorf("%s (%s): open succeeded", name, arm)
			}
		}
	}
	// Wrong kind must fail on both paths too.
	goodPath := write("good.vtb", good)
	f, size := preadFile(t, goodPath)
	for arm, open := range map[string]func() (*RSSIReader, error){
		"mmap":  func() (*RSSIReader, error) { return OpenRSSI(goodPath, OpenOptions{}) },
		"pread": func() (*RSSIReader, error) { return newRSSIReader(f, size) },
	} {
		if r, err := open(); err == nil {
			r.Close()
			t.Errorf("%s: opened trajectory file as RSSI", arm)
		} else if !strings.Contains(err.Error(), "trajectory") {
			t.Errorf("%s: kind error %q does not name the actual kind", arm, err)
		}
	}
}
