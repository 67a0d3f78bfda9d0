package serve

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/plan"
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
	loadViaPlan(t, ds, nil) // warm the cache

	appendSegmented(t, l, samples[cut:], len(samples)-cut)
	if _, err := ds.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := ds.BlockInvalidations(); n != 0 {
		t.Errorf("append invalidated %d blocks; old segments should stay warm", n)
	}
	_, stats, _ := loadViaPlan(t, ds, nil)
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
	got, stats, _ := loadViaPlan(t, ds, nil)
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

// TestPinnedSetOutlivesCompaction: a query pins a 20-segment set, and an
// in-process compaction (vitaserve -compact) merges those segments while it
// is pinned. When RunOnce returns every input file is gone; the pinned set
// still scans the pre-compaction rows byte-identically from the readers it
// holds; and its release, the query's last step, removes no file and does
// not wait for the inputs' blocks to be freed.
func TestPinnedSetOutlivesCompaction(t *testing.T) {
	samples := testSamples()
	dir := t.TempDir()
	writeSegmented(t, dir, samples, len(samples)/20)
	ds, err := Open(dir, Config{CacheBytes: -1, WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	inputs := ds.SegLog().Snapshot().Segments
	if len(inputs) != 20 {
		t.Fatalf("log holds %d segments, want 20", len(inputs))
	}
	src, err := ds.pinSource()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := seglog.NewCompactor(ds.SegLog(), seglog.CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %+v, %v", m, err)
	}
	for _, m := range inputs {
		if _, err := os.Stat(filepath.Join(dir, m.File)); !os.IsNotExist(err) {
			t.Errorf("input %s still on disk after RunOnce returned (%v)", m.File, err)
		}
	}
	// The dataset moves on; the query's pin is the old set's last reference.
	if changed, err := ds.Refresh(); err != nil || !changed {
		t.Fatalf("refresh after compaction: changed %v, err %v", changed, err)
	}
	c, err := plan.NewScan(src).Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.CollectSamples(c)
	if err != nil {
		t.Fatalf("pinned set after compaction: %v", err)
	}
	if !slices.Equal(got, samples) {
		t.Errorf("pinned set scans %d rows that differ from the %d written", len(got), len(samples))
	}

	before := dirNames(t, dir)
	start := time.Now()
	src.release()
	elapsed := time.Since(start)
	if after := dirNames(t, dir); !slices.Equal(after, before) {
		t.Errorf("releasing the pinned set changed the log directory:\n got %v\nwant %v", after, before)
	}
	// Unmapping the 20 unlinked inputs frees their blocks; that must not
	// happen in the query's release (0.75–1.1 s on a disk that discards
	// freed blocks when it did).
	if elapsed > 250*time.Millisecond {
		t.Errorf("last release of the pinned set took %v, want it off the query's path", elapsed)
	}
	t.Logf("last release of the pinned set took %v", elapsed)
}

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestBuildRetriesAfterCompaction: a reader that read a manifest just before
// another process compacted the log finds that manifest's segments unlinked.
// It reloads the manifest, whose generation has moved, and builds that one.
func TestBuildRetriesAfterCompaction(t *testing.T) {
	samples := testSamples()
	dir := t.TempDir()
	writeSegmented(t, dir, samples, len(samples)/5+1)
	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	stale := ds.SegLog().Snapshot()

	other, err := seglog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := seglog.NewCompactor(other, seglog.CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %+v, %v", m, err)
	}
	man, set, err := ds.buildCurrent(stale, nil)
	if err != nil {
		t.Fatalf("build over a compacted manifest: %v", err)
	}
	defer set.release()
	if man.Generation <= stale.Generation || set.gen != man.Generation || len(set.segs) != 1 {
		t.Fatalf("built generation %d (set %d, %d segments) from stale generation %d; want the compacted one",
			man.Generation, set.gen, len(set.segs), stale.Generation)
	}
}

// TestRefreshMissingSegmentKeepsOldSet: a manifest naming a segment that is
// not on disk, under a generation that does not move, fails the refresh at
// once, and the previous set keeps serving.
func TestRefreshMissingSegmentKeepsOldSet(t *testing.T) {
	samples := testSamples()
	cut := len(samples) / 2
	dir := t.TempDir()
	l := writeSegmented(t, dir, samples[:cut], cut/2+1)
	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	want := operatorText(t, ds)

	appendSegmented(t, l, samples[cut:], len(samples)-cut)
	segs := l.Snapshot().Segments
	if err := os.Remove(l.SegmentPath(segs[len(segs)-1])); err != nil {
		t.Fatal(err)
	}
	refreshed := make(chan error, 1)
	go func() {
		_, err := ds.Refresh()
		refreshed <- err
	}()
	select {
	case err := <-refreshed:
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("refresh over a missing segment: %v, want a not-exist error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refresh over a missing segment did not return")
	}
	if got := ds.Len(); got != cut {
		t.Errorf("after the failed refresh Len = %d, want the old set's %d", got, cut)
	}
	if got := operatorText(t, ds); got != want {
		t.Error("the failed refresh changed the old set's answers")
	}
}

// TestLiveLogConcurrency runs, in one process and on one log handle, a
// writer appending, a compactor looping, Refresh looping and queries. Each
// query pins a set and its manifest together and must answer exactly that
// generation's rows: the first Rows() samples, in order. Refresh may fail
// only with errClosed, once the dataset is closed.
func TestLiveLogConcurrency(t *testing.T) {
	samples := testSamples()
	dir := t.TempDir()
	if _, err := seglog.Create(dir, colstore.KindTrajectory); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	l := ds.SegLog()
	compactor := seglog.NewCompactor(l, seglog.CompactorOptions{MinSegments: 2})
	w, err := seglog.NewTrajectoryWriter(l, seglog.WriterOptions{MaxSegmentRows: 240, Block: colstore.Options{BlockSize: 64}})
	if err != nil {
		t.Fatal(err)
	}

	// query pins the current set with the manifest it was built from and
	// scans it whole.
	query := func() (seglog.Manifest, []trajectory.Sample, error) {
		ds.mu.Lock()
		set, man := ds.cur, ds.man
		set.retain()
		ds.mu.Unlock()
		src := &planSource{d: ds, set: set}
		defer src.release()
		c, err := plan.NewScan(src).Compile()
		if err != nil {
			return man, nil, err
		}
		rows, err := plan.CollectSamples(c)
		return man, rows, err
	}
	check := func(man seglog.Manifest, rows []trajectory.Sample, err error) bool {
		t.Helper()
		if err != nil {
			t.Errorf("query at generation %d: %v", man.Generation, err)
			return false
		}
		if n := man.Rows(); !slices.Equal(rows, samples[:n]) {
			t.Errorf("query at generation %d answered %d rows, want the generation's %d", man.Generation, len(rows), n)
			return false
		}
		return true
	}

	written, stop := make(chan struct{}), make(chan struct{})
	var wg, loops sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(written)
		for _, s := range samples {
			if err := w.Write(s); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-written:
				if _, err := compactor.RunOnce(); err != nil {
					t.Error(err)
				}
				return
			default:
			}
			if _, err := compactor.RunOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var refreshes, queries atomic.Int64
	loops.Add(3)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			refreshes.Add(1)
		}
	}()
	for range 2 {
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !check(query()) {
					return
				}
				queries.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	loops.Wait()

	if _, err := ds.Refresh(); err != nil {
		t.Fatal(err)
	}
	man, rows, err := query()
	if check(man, rows, err) && len(rows) != len(samples) {
		t.Errorf("after the writer closed the log serves %d rows, want %d", len(rows), len(samples))
	}
	t.Logf("%d refreshes, %d queries, final generation %d with %d segments", refreshes.Load(), queries.Load(), man.Generation, len(man.Segments))
	ds.Close()
	if _, err := ds.Refresh(); err != errClosed {
		t.Errorf("refresh after Close: %v, want errClosed", err)
	}
}
