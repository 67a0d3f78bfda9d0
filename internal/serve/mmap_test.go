package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"vita/internal/geom"
	"vita/internal/storage"
)

// TestDatasetMmapParity opens the same VTB dataset mmap-backed and
// pread-backed and requires identical operator answers in both warm-cache
// and streaming (cache-less) configurations.
func TestDatasetMmapParity(t *testing.T) {
	configs := map[string]Config{
		"cached":    {},
		"streaming": {CacheBytes: -1, Parallelism: 1},
	}
	rangeReq := RangeRequest{Floor: 0, Box: geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(18, 12)}, T0: 100, T1: 200}
	knnReq := KNNRequest{Floor: 0, At: geom.Pt(10, 8), T: 150, K: 3}
	trajReq := TrajRequest{Obj: 2, T0: 0, T1: 300}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			mcfg := cfg
			pcfg := cfg
			pcfg.DisableMmap = true
			mm := openTestDataset(t, storage.FormatVTB, mcfg)
			pr := openTestDataset(t, storage.FormatVTB, pcfg)
			if pr.Mmapped() {
				t.Fatal("DisableMmap dataset reports Mmapped")
			}
			mRange, err := mm.Range(rangeReq)
			if err != nil {
				t.Fatal(err)
			}
			pRange, err := pr.Range(rangeReq)
			if err != nil {
				t.Fatal(err)
			}
			if len(mRange.Hits) == 0 {
				t.Fatal("range query matched nothing")
			}
			if !reflect.DeepEqual(mRange.Hits, pRange.Hits) || !reflect.DeepEqual(mRange.Objects, pRange.Objects) {
				t.Error("range answers differ between mmap and pread")
			}
			mKNN, _ := mm.KNN(knnReq)
			pKNN, _ := pr.KNN(knnReq)
			if !reflect.DeepEqual(mKNN.Neighbors, pKNN.Neighbors) {
				t.Error("knn answers differ between mmap and pread")
			}
			mTraj, _ := mm.Traj(trajReq)
			pTraj, _ := pr.Traj(trajReq)
			if !reflect.DeepEqual(mTraj.Samples, pTraj.Samples) {
				t.Error("traj answers differ between mmap and pread")
			}
		})
	}
}

// TestStreamingPeakDecodedBytes checks that the cache-less cursor path
// reports a bounded peak: at most one decoded block's batch, never the whole
// matched result set.
func TestStreamingPeakDecodedBytes(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{CacheBytes: -1, Parallelism: 1})
	resp, err := ds.Range(RangeRequest{Floor: -1, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, T0: 0, T1: 600})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.Stats
	if st.PeakDecodedBytes <= 0 {
		t.Fatalf("streaming load reported no peak decoded bytes: %+v", st)
	}
	if st.Scan.BlocksScanned < 2 {
		t.Fatalf("test dataset too small to observe streaming (%d blocks scanned)", st.Scan.BlocksScanned)
	}
	// The whole-file load decodes BlocksScanned blocks; a streaming peak
	// must be far below the total decoded volume. Rows are uniform here, so
	// total ≈ peak × blocks; require peak < total/2 to prove bounding
	// without depending on exact sizes.
	total := int64(st.Scan.RowsScanned) * 50 // loose lower bound: >50 B/row in column form
	if st.PeakDecodedBytes >= total/2 {
		t.Fatalf("peak %d not clearly below total decoded volume (~%d): streaming not bounded",
			st.PeakDecodedBytes, total)
	}
	// Peak is the pre-filter decode footprint: a highly selective predicate
	// (one object) decodes the same full blocks, so its peak must match the
	// wide query's, not the few rows that survive filtering.
	sresp, err := ds.Traj(TrajRequest{Obj: 1, T0: 0, T1: 600})
	if err != nil {
		t.Fatal(err)
	}
	if sresp.Stats.PeakDecodedBytes < st.PeakDecodedBytes/2 {
		t.Fatalf("selective query peak %d far below wide query peak %d: peak measured post-filter",
			sresp.Stats.PeakDecodedBytes, st.PeakDecodedBytes)
	}

	// The warm-cache path does not stream and must not claim a peak.
	warm := openTestDataset(t, storage.FormatVTB, Config{})
	wresp, err := warm.Range(RangeRequest{Floor: -1, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, T0: 0, T1: 600})
	if err != nil {
		t.Fatal(err)
	}
	if wresp.Stats.PeakDecodedBytes != 0 {
		t.Fatalf("cached path reported peak decoded bytes %d", wresp.Stats.PeakDecodedBytes)
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
	srv.EnablePprof()
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
