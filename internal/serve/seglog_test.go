package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/seglog"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// writeSegmented streams samples into a fresh trajectory segment log at dir,
// rolling every maxRows rows.
func writeSegmented(t *testing.T, dir string, samples []trajectory.Sample, maxRows int) *seglog.Log {
	t.Helper()
	l, err := seglog.OpenOrCreate(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	appendSegmented(t, l, samples, maxRows)
	return l
}

func appendSegmented(t *testing.T, l *seglog.Log, samples []trajectory.Sample, maxRows int) {
	t.Helper()
	w, err := seglog.NewTrajectoryWriter(l, seglog.WriterOptions{
		MaxSegmentRows: maxRows,
		Block:          colstore.Options{BlockSize: 512},
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

// operatorText runs every operator and concatenates their exact CLI text —
// the byte-parity probe for single-file vs segmented.
func operatorText(t *testing.T, ds *Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	rresp, err := ds.Range(RangeRequest{Floor: 1, Box: geom.BBox{Min: geom.Pt(3, 2), Max: geom.Pt(17, 12)}, T0: 100, T1: 130})
	if err != nil {
		t.Fatal(err)
	}
	rresp.WriteText(&buf)
	kresp, err := ds.KNN(KNNRequest{Floor: 0, At: geom.Pt(10, 7.5), T: 300, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	kresp.WriteText(&buf)
	dresp, err := ds.Density(DensityRequest{T: 300})
	if err != nil {
		t.Fatal(err)
	}
	dresp.WriteText(&buf)
	tresp, err := ds.Traj(TrajRequest{Obj: 3, T0: 100, T1: 400})
	if err != nil {
		t.Fatal(err)
	}
	tresp.WriteText(&buf)
	wresp, err := ds.Dwell(DwellRequest{Floor: -1, T0: 100, T1: 400})
	if err != nil {
		t.Fatal(err)
	}
	wresp.WriteText(&buf)
	iresp, err := ds.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	iresp.WriteText(&buf)
	sresp, err := ds.Watch(WatchRequest{Floor: -1, Box: geom.BBox{Min: geom.Pt(3, 2), Max: geom.Pt(17, 12)}})
	if err != nil {
		t.Fatal(err)
	}
	sresp.WriteText(&buf)
	return buf.String()
}

// TestSegmentedMatchesSingleFile is the acceptance gate for multi-segment
// serving: the same rows as one flat VTB file and as a segment log — before
// compaction, after full compaction, and mid-way (a merged segment plus
// fresh tail segments) — produce byte-identical operator output, in both the
// cached daemon configuration and the streaming one-shot configuration.
func TestSegmentedMatchesSingleFile(t *testing.T) {
	samples := testSamples()
	flatDir := t.TempDir()
	writeDataset(t, flatDir, storage.FormatVTB, samples)

	segDir := t.TempDir() // 5 fresh segments
	writeSegmented(t, segDir, samples, len(samples)/5+1)

	compactedDir := t.TempDir() // 1 merged segment
	lc := writeSegmented(t, compactedDir, samples, len(samples)/5+1)
	if m, err := seglog.NewCompactor(lc, seglog.CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %+v, %v", m, err)
	}

	mixedDir := t.TempDir() // merged prefix + 2 fresh tail segments
	cut := len(samples) * 3 / 5
	lm := writeSegmented(t, mixedDir, samples[:cut], cut/3+1)
	if m, err := seglog.NewCompactor(lm, seglog.CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("mixed compaction: %+v, %v", m, err)
	}
	appendSegmented(t, lm, samples[cut:], (len(samples)-cut)/2+1)

	configs := map[string]Config{
		"cached":    {WatchInterval: -1},
		"streaming": {CacheBytes: -1, WatchInterval: -1},
	}
	for name, cfg := range configs {
		flat, err := Open(flatDir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := operatorText(t, flat)
		flat.Close()
		for _, tc := range []struct {
			label string
			dir   string
			segs  int
		}{
			{"pre-compaction", segDir, 5},
			{"post-compaction", compactedDir, 1},
			{"mid-compaction", mixedDir, 3},
		} {
			ds, err := Open(tc.dir, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.label, err)
			}
			if got := ds.Segments(); got != tc.segs {
				t.Errorf("%s/%s: segments = %d, want %d", name, tc.label, got, tc.segs)
			}
			if got := operatorText(t, ds); got != want {
				t.Errorf("%s/%s: operator output differs from single file\n got: %q\nwant: %q",
					name, tc.label, got[:min(len(got), 400)], want[:min(len(want), 400)])
			}
			ds.Close()
		}
	}
}

// TestEmptyLogServes: a live log with no sealed segment yet — what a server
// sees between a writer creating the log and its first seal — answers every
// operator with its empty form and zeroed scan stats, at any cache budget,
// and serves the rows once a segment seals. (The default budget used to panic
// on every request: it indexed the first of zero per-segment cursors.)
func TestEmptyLogServes(t *testing.T) {
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)}
	for _, budget := range []int64{0, -1} {
		dir := t.TempDir()
		l, err := seglog.Create(dir, colstore.KindTrajectory)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Open(dir, Config{CacheBytes: budget, WatchInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if ds.Len() != 0 || ds.Blocks() != 0 || ds.Segments() != 0 {
			t.Fatalf("empty log reports %d rows, %d blocks, %d segments", ds.Len(), ds.Blocks(), ds.Segments())
		}

		info, err := ds.Info(false)
		if err != nil {
			t.Fatal(err)
		}
		rng, err := ds.Range(RangeRequest{Floor: -1, Box: box, T0: 0, T1: 600})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := ds.Traj(TrajRequest{Obj: 1, T0: 0, T1: 600})
		if err != nil {
			t.Fatal(err)
		}
		knn, err := ds.KNN(KNNRequest{Floor: 0, At: geom.Pt(10, 7.5), T: 100, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		den, err := ds.Density(DensityRequest{T: 100})
		if err != nil {
			t.Fatal(err)
		}
		dwell, err := ds.Dwell(DwellRequest{Floor: -1, T0: 0, T1: 600})
		if err != nil {
			t.Fatal(err)
		}
		watch, err := ds.Watch(WatchRequest{Floor: -1, Box: box})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]struct {
			body  any
			want  string
			stats Stats
		}{
			"info empty":     {info.Empty, `true`, info.Stats},
			"range hits":     {rng.Hits, `null`, rng.Stats},
			"range objects":  {rng.Objects, `[]`, rng.Stats},
			"traj samples":   {traj.Samples, `null`, traj.Stats},
			"knn neighbors":  {knn.Neighbors, `[]`, knn.Stats},
			"density counts": {den.Counts, `{}`, den.Stats},
			"dwell rooms":    {dwell.Rooms, `[]`, dwell.Stats},
			"watch events":   {watch.Events, `null`, watch.Stats},
			"watch inside":   {watch.Inside, `null`, watch.Stats},
		} {
			if js := string(jsonBytes(t, got.body)); js != got.want {
				t.Errorf("cache %d: %s = %s, want %s", budget, name, js, got.want)
			}
			if got.stats != (Stats{Format: "vtb"}) {
				t.Errorf("cache %d: %s: stats %+v, want zeroes", budget, name, got.stats)
			}
		}

		appendSegmented(t, l, testSamples(), len(testSamples())+1)
		if changed, err := ds.Refresh(); err != nil || !changed {
			t.Fatalf("refresh after the first seal: changed %v, err %v", changed, err)
		}
		info, err = ds.Info(false)
		if err != nil {
			t.Fatal(err)
		}
		if info.Empty || info.Samples != len(testSamples()) || info.Stats.Segments != 1 {
			t.Errorf("cache %d: after the first seal: %d samples in %d segments, empty %v; want %d in 1",
				budget, info.Samples, info.Stats.Segments, info.Empty, len(testSamples()))
		}
	}
}

// TestRefreshPicksUpAppend checks that a manifest refresh folds a writer's
// new segments into serving without reopening the dataset.
func TestRefreshPicksUpAppend(t *testing.T) {
	samples := testSamples()
	cut := len(samples) / 2
	dir := t.TempDir()
	l := writeSegmented(t, dir, samples[:cut], cut/2+1)

	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.Len(); got != cut {
		t.Fatalf("pre-append Len = %d, want %d", got, cut)
	}

	appendSegmented(t, l, samples[cut:], len(samples)-cut)
	changed, err := ds.Refresh()
	if err != nil || !changed {
		t.Fatalf("refresh after append: changed=%v err=%v", changed, err)
	}
	if got := ds.Len(); got != len(samples) {
		t.Fatalf("post-append Len = %d, want %d", got, len(samples))
	}
	if ds.Refreshes() != 1 {
		t.Errorf("refreshes = %d, want 1", ds.Refreshes())
	}
	// A second refresh with no new generation is a no-op.
	if changed, err := ds.Refresh(); err != nil || changed {
		t.Fatalf("idle refresh: changed=%v err=%v", changed, err)
	}

	// Parity against a flat file holding all rows, post-refresh.
	flatDir := t.TempDir()
	writeDataset(t, flatDir, storage.FormatVTB, samples)
	flat, err := Open(flatDir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if got, want := operatorText(t, ds), operatorText(t, flat); got != want {
		t.Error("refreshed dataset output differs from flat file")
	}
}

// TestBlockCacheInvalidationIsPrecise checks the (segment, block) cache
// keys: an append invalidates nothing (old segments' blocks stay warm), a
// compaction invalidates exactly the superseded segments' blocks.
func TestBlockCacheInvalidationIsPrecise(t *testing.T) {
	samples := testSamples()
	cut := len(samples) / 2
	dir := t.TempDir()
	l := writeSegmented(t, dir, samples[:cut], cut/2+1)

	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	all := colstore.Predicate{}
	if _, _, err := ds.Samples(all); err != nil {
		t.Fatal(err) // warm the cache
	}

	appendSegmented(t, l, samples[cut:], len(samples)-cut)
	if _, err := ds.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := ds.BlockInvalidations(); n != 0 {
		t.Errorf("append invalidated %d blocks; old segments should stay warm", n)
	}
	_, stats, err := ds.Samples(all)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits == 0 {
		t.Error("no cache hits after append — old segments' blocks went cold")
	}

	if m, err := seglog.NewCompactor(ds.SegLog(), seglog.CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %+v, %v", m, err)
	}
	if _, err := ds.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ds.BlockInvalidations() == 0 {
		t.Error("compaction refresh invalidated no blocks")
	}
	got, stats, err := ds.Samples(all)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Errorf("post-compaction scan fanned over %d segments, want 1", stats.Segments)
	}
	if len(got) != len(samples) {
		t.Fatalf("post-compaction rows = %d, want %d", len(got), len(samples))
	}
	for i := range got {
		if got[i] != samples[i] {
			t.Fatalf("row %d differs post-compaction", i)
		}
	}
}

// TestServeIgnoresCrashArtifacts opens a log bearing the debris of a writer
// and compactor both killed mid-mutation; serving sees exactly the committed
// rows.
func TestServeIgnoresCrashArtifacts(t *testing.T) {
	samples := testSamples()
	dir := t.TempDir()
	writeSegmented(t, dir, samples, len(samples)/3+1)

	for _, junk := range []string{"seg-00000099.vtb.tmp", "seg-00000098.vtb", seglog.ManifestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.Len(); got != len(samples) {
		t.Fatalf("Len with crash artifacts = %d, want %d", got, len(samples))
	}
	flatDir := t.TempDir()
	writeDataset(t, flatDir, storage.FormatVTB, samples)
	flat, err := Open(flatDir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if operatorText(t, ds) != operatorText(t, flat) {
		t.Error("crash artifacts changed query output")
	}
}

// TestWatcherPicksUpAppend exercises the background watcher end to end: a
// dataset opened with a short watch interval folds in an append without any
// explicit Refresh call.
func TestWatcherPicksUpAppend(t *testing.T) {
	samples := testSamples()
	cut := len(samples) / 2
	dir := t.TempDir()
	l := writeSegmented(t, dir, samples[:cut], cut)

	ds, err := Open(dir, Config{WatchInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	appendSegmented(t, l, samples[cut:], len(samples)-cut)

	deadline := time.Now().Add(5 * time.Second)
	for ds.Len() != len(samples) {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never picked up the append: Len = %d, want %d", ds.Len(), len(samples))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
