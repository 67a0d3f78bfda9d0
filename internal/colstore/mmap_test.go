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
		pr, err := OpenTrajectory(path, OpenOptions{DisableMmap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Close()

		if mm.Mmapped() != mmapAvailable {
			t.Errorf("default open: Mmapped() = %v, platform support = %v", mm.Mmapped(), mmapAvailable)
		}
		if pr.Mmapped() {
			t.Error("DisableMmap open still reports Mmapped()")
		}

		pred := TimeWindow(50, 220)
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
	for _, disable := range []bool{false, true} {
		r, err := OpenTrajectory(path, OpenOptions{DisableMmap: disable})
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
			t.Errorf("disableMmap=%v: a new cursor after Close succeeded", disable)
		}
		if _, err := r.DecodeBlock(0); err == nil {
			t.Errorf("disableMmap=%v: DecodeBlock after Close succeeded", disable)
		}
		if cur.Next() {
			t.Errorf("disableMmap=%v: cursor Next after Close succeeded", disable)
		} else if cur.Err() == nil {
			t.Errorf("disableMmap=%v: cursor Next after Close reported no error", disable)
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
			t.Errorf("disableMmap=%v: second Close: %v", disable, err)
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
		for _, disable := range []bool{false, true} {
			if r, err := OpenTrajectory(path, OpenOptions{DisableMmap: disable}); err == nil {
				r.Close()
				t.Errorf("%s (disableMmap=%v): open succeeded", name, disable)
			}
		}
	}
	// Wrong kind must fail on both paths too.
	goodPath := write("good.vtb", good)
	for _, disable := range []bool{false, true} {
		if r, err := OpenRSSI(goodPath, OpenOptions{DisableMmap: disable}); err == nil {
			r.Close()
			t.Errorf("disableMmap=%v: opened trajectory file as RSSI", disable)
		} else if !strings.Contains(err.Error(), "trajectory") {
			t.Errorf("disableMmap=%v: kind error %q does not name the actual kind", disable, err)
		}
	}
}
