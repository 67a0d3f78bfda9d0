package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/storage"
)

// TestDatasetMmapParity serves the same rows from a mapped VTB file and from
// a CSV file, whose rows are re-encoded into an in-memory VTB image at open
// and read from it in place, and requires identical operator answers with the default block cache and with nothing kept. The
// test rows sit on CSV's 4-decimal grid, so both datasets hold the same
// rows.
func TestDatasetMmapParity(t *testing.T) {
	configs := map[string]Config{
		"cached":       {},
		"nothing kept": {CacheBytes: -1},
	}
	rangeReq := RangeRequest{Floor: 0, Box: geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(18, 12)}, T0: 100, T1: 200}
	knnReq := KNNRequest{Floor: 0, At: geom.Pt(10, 8), T: 150, K: 3}
	trajReq := TrajRequest{Obj: 2, T0: 0, T1: 300}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			mm := openTestDataset(t, storage.FormatVTB, cfg)
			im := openTestDataset(t, storage.FormatCSV, cfg)
			mRange, err := mm.Range(rangeReq)
			if err != nil {
				t.Fatal(err)
			}
			pRange, err := im.Range(rangeReq)
			if err != nil {
				t.Fatal(err)
			}
			if len(mRange.Hits) == 0 {
				t.Fatal("range query matched nothing")
			}
			if !reflect.DeepEqual(mRange.Hits, pRange.Hits) || !reflect.DeepEqual(mRange.Objects, pRange.Objects) {
				t.Error("range answers differ between mmap and image")
			}
			mKNN, _ := mm.KNN(knnReq)
			pKNN, _ := im.KNN(knnReq)
			if !reflect.DeepEqual(mKNN.Neighbors, pKNN.Neighbors) {
				t.Error("knn answers differ between mmap and image")
			}
			mTraj, _ := mm.Traj(trajReq)
			pTraj, _ := im.Traj(trajReq)
			if !reflect.DeepEqual(mTraj.Samples, pTraj.Samples) {
				t.Error("traj answers differ between mmap and image")
			}
		})
	}
}

// TestStreamingPeakDecodedBytes is the per-request memory bound: on a file
// of many windows of blocks, at every cache budget, a whole-span scan reports
// a peak of at most one window of the largest block — never the decoded
// volume of what it scanned — a repeat on a warm cache reports 0, and a
// one-object query, which decodes the same blocks to keep a sliver of each,
// reports the same peak as the wide scan: it is measured before filtering.
func TestStreamingPeakDecodedBytes(t *testing.T) {
	const blockRows = 32
	samples := testSamples()
	var image bytes.Buffer
	writeAll(t, colstore.NewTrajectoryWriter(&image, colstore.Options{BlockSize: blockRows}), samples)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trajectory.vtb"), image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	window, blocks := decodeWindow(), len(samples)/blockRows
	if blocks < 3*window {
		t.Skipf("%d blocks are not several windows of %d", blocks, window)
	}
	var largest int64
	for i := 0; i < len(samples); i += blockRows {
		var b colstore.TrajectoryBatch
		for _, s := range samples[i : i+blockRows] {
			b.Append(s)
		}
		largest = max(largest, b.Bytes())
	}

	wide := RangeRequest{Floor: -1, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, T0: 0, T1: 600}
	for _, budget := range cacheBudgets(t, dir) {
		ds, err := Open(dir, Config{CacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		resp, err := ds.Range(wide)
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Stats
		if st.Scan.BlocksScanned != blocks || st.CacheMisses != blocks {
			t.Fatalf("cache %d: whole-span scan read %d blocks and decoded %d, want all %d", budget, st.Scan.BlocksScanned, st.CacheMisses, blocks)
		}
		if st.PeakDecodedBytes <= 0 || st.PeakDecodedBytes > int64(window)*largest {
			t.Errorf("cache %d: peak %d decoded bytes, want within (0, %d windows x %d bytes]", budget, st.PeakDecodedBytes, window, largest)
		}
		again, err := ds.Range(wide)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case budget == 0 && (again.Stats.CacheMisses != 0 || again.Stats.PeakDecodedBytes != 0):
			t.Errorf("warm repeat decoded %d blocks, peak %d; want 0 and 0", again.Stats.CacheMisses, again.Stats.PeakDecodedBytes)
		case budget < 0 && again.Stats.PeakDecodedBytes != st.PeakDecodedBytes:
			t.Errorf("nothing kept: repeat peak %d, first %d", again.Stats.PeakDecodedBytes, st.PeakDecodedBytes)
		}
		if budget < 0 {
			one, err := ds.Traj(TrajRequest{Obj: 1, T0: 0, T1: 600})
			if err != nil {
				t.Fatal(err)
			}
			if len(one.Samples) == 0 || one.Stats.PeakDecodedBytes != st.PeakDecodedBytes {
				t.Errorf("one-object query: %d rows, peak %d; the wide scan's peak is %d: peak measured after filtering",
					len(one.Samples), one.Stats.PeakDecodedBytes, st.PeakDecodedBytes)
			}
		}
	}
}

// TestServerPprof checks that the profiling endpoints are absent by default
// and served after EnablePprof.
func TestServerPprof(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	plain := httptest.NewServer(NewServer(ds).Handler())
	defer plain.Close()
	res, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}

	srv := NewServer(ds)
	srv.EnablePprof(DefaultPprofOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, res.StatusCode)
		}
	}
	// The operators still work with pprof mounted.
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d with pprof enabled", res.StatusCode)
	}
}
