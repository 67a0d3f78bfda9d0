package vita

// This file is the benchmark harness: one bench per reproduced figure/claim
// (E1-E10, see internal/experiments) plus the ablations (A1-A4) and
// micro-benchmarks for the hot substrates. Run:
//
//	go test -bench=. -benchmem
//
// cmd/vitabench prints the same experiments as human-readable tables.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/device"
	"vita/internal/experiments"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/index"
	"vita/internal/model"
	"vita/internal/object"
	"vita/internal/plan"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/serve"
	"vita/internal/storage"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

func benchExperiment(b *testing.B, run func(seed uint64) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkPipelineEndToEnd regenerates E1 (Figure 1 data flow).
func BenchmarkPipelineEndToEnd(b *testing.B) { benchExperiment(b, experiments.E1Pipeline) }

// BenchmarkDeploymentModels regenerates E2 (Figure 3 deployments and
// distributions).
func BenchmarkDeploymentModels(b *testing.B) { benchExperiment(b, experiments.E2Deployment) }

// BenchmarkRSSIWallAttenuation regenerates E3 (Figure 3a d1/d2 claim).
func BenchmarkRSSIWallAttenuation(b *testing.B) { benchExperiment(b, experiments.E3WallAttenuation) }

// BenchmarkSamplingFrequencySweep regenerates E4 (ground-truth fidelity).
func BenchmarkSamplingFrequencySweep(b *testing.B) { benchExperiment(b, experiments.E4SamplingSweep) }

// BenchmarkPositioningAccuracy regenerates E5 (method × noise accuracy).
func BenchmarkPositioningAccuracy(b *testing.B) { benchExperiment(b, experiments.E5Accuracy) }

// BenchmarkRoutingSchemes regenerates E6 (min-distance vs min-time).
func BenchmarkRoutingSchemes(b *testing.B) { benchExperiment(b, experiments.E6Routing) }

// BenchmarkDBIProcessing regenerates E7 (§4.1 DBI pipeline).
func BenchmarkDBIProcessing(b *testing.B) { benchExperiment(b, experiments.E7DBIProcessing) }

// BenchmarkStorageQueries regenerates E8 (Data Stream APIs).
func BenchmarkStorageQueries(b *testing.B) { benchExperiment(b, experiments.E8StorageQueries) }

// BenchmarkArrivalProcess regenerates E9 (Poisson arrivals).
func BenchmarkArrivalProcess(b *testing.B) { benchExperiment(b, experiments.E9Arrivals) }

// BenchmarkMethodDeviceCombos regenerates E10 (§5 step 6 combinations).
func BenchmarkMethodDeviceCombos(b *testing.B) { benchExperiment(b, experiments.E10Combos) }

// BenchmarkAblationLoS regenerates A1.
func BenchmarkAblationLoS(b *testing.B) { benchExperiment(b, experiments.AblationLoS) }

// BenchmarkAblationIndex regenerates A2.
func BenchmarkAblationIndex(b *testing.B) { benchExperiment(b, experiments.AblationIndex) }

// BenchmarkAblationRadioMapDensity regenerates A3.
func BenchmarkAblationRadioMapDensity(b *testing.B) {
	benchExperiment(b, experiments.AblationRadioMapDensity)
}

// BenchmarkAblationDecomposition regenerates A4.
func BenchmarkAblationDecomposition(b *testing.B) {
	benchExperiment(b, experiments.AblationDecomposition)
}

// BenchmarkPipeline measures generation throughput in rows/s. The p=N cases
// run trajectory + RSSI generation (positioning skipped) in memory at
// Parallelism N; their output is byte-identical, so they differ only in
// wall clock, and p=1 runs every object on one goroutine. Without a sink
// there is no merge, so extra workers speed up simulation and RSSI replay
// alike. The sink case is the whole chain as vitagen runs it: trilateration
// on, streamed into a VTB DirSink, with the merge and the block encoding
// running beside the workers.
func BenchmarkPipeline(b *testing.B) {
	base := DefaultConfig()
	base.Objects.Count = 80
	base.Objects.MinLifespan = 300
	base.Objects.MaxLifespan = 600
	base.Trajectory.Duration = 600
	run := func(b *testing.B, generate func() (*Dataset, error)) {
		b.ReportAllocs()
		rows := 0
		for i := 0; i < b.N; i++ {
			ds, err := generate()
			if err != nil {
				b.Fatal(err)
			}
			if ds.Trajectories.Len() == 0 || ds.RSSICount == 0 {
				b.Fatal("empty generation output")
			}
			rows += ds.Trajectories.Len() + ds.RSSICount + len(ds.Estimates)
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			cfg := base
			cfg.Parallelism = p
			cfg.Positioning = PositioningConfig{}
			run(b, func() (*Dataset, error) { return Generate(cfg) })
		})
	}
	b.Run("sink", func(b *testing.B) {
		cfg := base
		cfg.Positioning = PositioningConfig{Method: "trilateration"}
		dir := b.TempDir()
		run(b, func() (*Dataset, error) {
			sink, err := NewDirSink(dir, StorageVTB)
			if err != nil {
				return nil, err
			}
			ds, err := GenerateTo(cfg, sink)
			if err != nil {
				sink.Discard()
				return nil, err
			}
			return ds, sink.Close()
		})
	})
}

// --- micro-benchmarks for the hot substrates ---

func officeTopoB(b *testing.B) *topo.Topology {
	b.Helper()
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		b.Fatal(err)
	}
	bd, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
	if err != nil {
		b.Fatal(err)
	}
	t, err := topo.Build(bd, topo.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkIFCParse measures DBI parsing alone.
func BenchmarkIFCParse(b *testing.B) {
	text := ifc.OfficeIFC()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ifc.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyBuild measures full topology derivation.
func BenchmarkTopologyBuild(b *testing.B) {
	text := ifc.OfficeIFC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := ifc.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		bd, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := topo.Build(bd, topo.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoute measures one cross-floor route computation.
func BenchmarkRoute(b *testing.B) {
	t := officeTopoB(b)
	from := model.At("office", 0, "", geom.Pt(4, 4))
	to := model.At("office", 1, "", geom.Pt(36, 18))
	sm := topo.DefaultSpeedModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Route(from, to, topo.MinDistance, sm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSSIModel measures one path-loss evaluation with noise.
func BenchmarkRSSIModel(b *testing.B) {
	m := rssi.DefaultPathLossModel()
	d := &device.Device{Props: device.DefaultProperties(device.WiFi)}
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.At(12.5, 2, d, r)
	}
}

// BenchmarkWallCrossings measures a line-of-sight query on the office floor.
func BenchmarkWallCrossings(b *testing.B) {
	t := officeTopoB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Crossings(0, geom.Pt(2, 2), geom.Pt(38, 18))
	}
}

// BenchmarkRTreeSearch measures point queries against a packed R-tree.
func BenchmarkRTreeSearch(b *testing.B) {
	r := rng.New(3)
	items := make([]index.Item, 512)
	for i := range items {
		p := &model.Partition{
			ID:      "p",
			Polygon: geom.Rect(r.Range(0, 500), r.Range(0, 500), r.Range(0, 500)+5, r.Range(0, 500)+5),
		}
		items[i] = p
	}
	t := index.BulkLoad(items)
	var buf []index.Item
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.SearchPoint(geom.Pt(r.Range(0, 500), r.Range(0, 500)), buf[:0])
	}
}

// --- query-engine benchmarks over real pipeline output ---

// benchSamples generates one deterministic trajectory dataset (40 objects,
// 300 simulated seconds) shared by the query benchmarks.
func benchSamples(b *testing.B) []trajectory.Sample {
	b.Helper()
	t := officeTopoB(b)
	sp, err := object.NewSpawner(t, object.SpawnConfig{
		InitialCount: 40,
		MinLifespan:  300, MaxLifespan: 300,
		MaxSpeed: 1.6,
		Pattern:  object.DefaultPattern(),
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := trajectory.NewEngine(t, sp, trajectory.Config{
		Duration: 300, Tick: 0.25, SampleInterval: 1,
	}, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	var samples []trajectory.Sample
	col := trajectory.NewCollector(func(batch []trajectory.Sample) error {
		samples = append(samples, batch...)
		return nil
	})
	_, err = eng.Run(col, nil)
	if cerr := col.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	return samples
}

// BenchmarkQueryWatch measures replaying the full dataset through four
// standing range queries, one Watch each, on an open dataset.
func BenchmarkQueryWatch(b *testing.B) {
	vtb, _, _ := vtbBenchImage(b)
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trajectory.vtb"), vtb, 0o644); err != nil {
		b.Fatal(err)
	}
	ds, err := serve.Open(dir, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	box := geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(14, 10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fl := 0; fl < 2; fl++ {
			for _, bb := range []geom.BBox{box, box.Expand(5)} {
				if _, err := ds.Watch(serve.WatchRequest{Floor: fl, Box: bb}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTrajectoryEngine measures the movement simulation alone (20
// objects, 60 simulated seconds).
func BenchmarkTrajectoryEngine(b *testing.B) {
	t := officeTopoB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := object.NewSpawner(t, object.SpawnConfig{
			InitialCount: 20,
			MinLifespan:  60, MaxLifespan: 60,
			MaxSpeed: 1.6,
			Pattern:  object.DefaultPattern(),
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := trajectory.NewEngine(t, sp, trajectory.Config{
			Duration: 60, Tick: 0.25, SampleInterval: 1,
		}, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- VTB columnar store benchmarks (internal/colstore) ---
//
// The acceptance bar for the storage engine: VTB files at most half the
// size of the equivalent CSV, and time-window scans that skip blocks via
// zone maps instead of reading the whole file. The benchmarks fail (not
// just regress) if either property is lost.

// vtbBenchImage encodes the shared benchmark dataset once: VTB bytes (small
// blocks so pruning has something to skip), CSV bytes, and the sample count.
func vtbBenchImage(b *testing.B) ([]byte, []byte, int) {
	b.Helper()
	samples := benchSamples(b)
	var vtb bytes.Buffer
	w := colstore.NewTrajectoryWriter(&vtb, colstore.Options{BlockSize: 1024})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := storage.WriteTrajectoryCSV(&csv, samples); err != nil {
		b.Fatal(err)
	}
	return vtb.Bytes(), csv.Bytes(), len(samples)
}

// BenchmarkVTBWrite measures streaming encode throughput (rows/op reported
// as bytes via SetBytes on the CSV-equivalent payload is meaningless here,
// so it reports encoded output bytes per run instead).
func BenchmarkVTBWrite(b *testing.B) {
	samples := benchSamples(b)
	b.ReportAllocs()
	b.ResetTimer()
	var encoded int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := colstore.NewTrajectoryWriter(&buf, colstore.Options{})
		for _, s := range samples {
			if err := w.Write(s); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		encoded = int64(buf.Len())
	}
	b.ReportMetric(float64(encoded), "file-bytes")
}

// BenchmarkVTBSizeVsCSV writes the same dataset in both formats and fails
// unless the VTB file is at most 50% of the CSV size (it is typically
// 20-30%). The ratio lands in the benchmark output for CI artifacts.
func BenchmarkVTBSizeVsCSV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vtb, csv, _ := vtbBenchImage(b)
		ratio := float64(len(vtb)) / float64(len(csv))
		if ratio > 0.5 {
			b.Fatalf("VTB file is %.0f%% of CSV (%d vs %d bytes), want <= 50%%",
				100*ratio, len(vtb), len(csv))
		}
		b.ReportMetric(100*ratio, "%csv-size")
	}
}

// BenchmarkVTBScanFull decodes every block of the benchmark file.
func BenchmarkVTBScanFull(b *testing.B) {
	vtb, _, n := vtbBenchImage(b)
	b.SetBytes(int64(len(vtb)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := colstore.NewTrajectoryReader(bytes.NewReader(vtb), int64(len(vtb)))
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		cur := r.Cursor(colstore.Predicate{})
		for cur.Next() {
			rows += cur.Batch().Len()
		}
		stats := cur.Stats()
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != n || stats.BlocksScanned != stats.BlocksTotal {
			b.Fatalf("full scan read %d rows, %d/%d blocks", rows, stats.BlocksScanned, stats.BlocksTotal)
		}
	}
}

// BenchmarkVTBScanPruned runs a 60-second time-window scan and fails unless
// the zone maps skipped blocks a full scan would have read.
func BenchmarkVTBScanPruned(b *testing.B) {
	vtb, _, _ := vtbBenchImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := colstore.NewTrajectoryReader(bytes.NewReader(vtb), int64(len(vtb)))
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		cur := r.Cursor(colstore.TimeWindow(100, 160))
		for cur.Next() {
			for _, t := range cur.Batch().T {
				if t < 100 || t > 160 {
					b.Fatalf("scan leaked sample at t=%g", t)
				}
			}
			rows += cur.Batch().Len()
		}
		stats := cur.Stats()
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("pruned scan matched nothing")
		}
		if stats.BlocksScanned >= stats.BlocksTotal {
			b.Fatalf("pruned scan read every block (%d/%d): zone maps are not pruning",
				stats.BlocksScanned, stats.BlocksTotal)
		}
		b.ReportMetric(float64(stats.BlocksScanned), "blocks-read")
		b.ReportMetric(float64(stats.BlocksPruned), "blocks-pruned")
	}
}

// BenchmarkPlanScanPruned runs the same 60-second time-window scan through
// the operator algebra (Scan + Filter compiled with predicate pushdown) and
// fails unless the pushed-down predicate still prunes blocks — the gate that
// the plan layer never regresses zone-map pruning relative to a hand-built
// predicate scan (BenchmarkVTBScanPruned above is the baseline).
func BenchmarkPlanScanPruned(b *testing.B) {
	vtb, _, _ := vtbBenchImage(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "trajectory.vtb")
	if err := os.WriteFile(path, vtb, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := plan.NewScan(plan.FileSource{Path: path}).
			Filter(plan.TimeBetween(100, 160)).
			Compile()
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for c.Next() {
			batch := c.Batch().Traj
			for j := 0; j < batch.Len(); j++ {
				if batch.T[j] < 100 || batch.T[j] > 160 {
					b.Fatalf("plan leaked sample at t=%g", batch.T[j])
				}
			}
			rows += batch.Len()
		}
		stats := c.Stats()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("pruned plan scan matched nothing")
		}
		if !c.ScanPred().HasTime {
			b.Fatal("planner failed to push the time window into the scan")
		}
		if stats.BlocksScanned >= stats.BlocksTotal {
			b.Fatalf("plan scan read every block (%d/%d): pushdown stopped pruning",
				stats.BlocksScanned, stats.BlocksTotal)
		}
		b.ReportMetric(float64(stats.BlocksScanned), "blocks-read")
		b.ReportMetric(float64(stats.BlocksPruned), "blocks-pruned")
	}
}

// BenchmarkServeWarmVsCold is the gate on what keeping a dataset open earns
// one range query on the shared 12k-sample image: "warm" runs the plan on an
// open dataset whose footer and decoded blocks are resident; "cold" is what
// vitaquery pays per invocation — open the file, parse the footer, decode the
// surviving blocks, run the same plan, close — with process
// spawn not even counted, so the bar is conservative. Both are the minimum
// over several runs, and warm must be at least 5x faster (measured: 12x).
// Nothing is kept per request, so this is the block cache and the open file
// alone; the HTTP shell around a served query is the end-to-end benchmark's
// to measure (bench/, workload http_hot).
func BenchmarkServeWarmVsCold(b *testing.B) {
	vtb, _, _ := vtbBenchImage(b)
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trajectory.vtb"), vtb, 0o644); err != nil {
		b.Fatal(err)
	}
	req := serve.RangeRequest{
		Floor: 0,
		Box:   geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(14, 10)},
		T0:    100, T1: 160,
	}

	ds, err := serve.Open(dir, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	first, err := ds.Range(req) // decodes the surviving blocks into the cache
	if err != nil {
		b.Fatal(err)
	}
	if len(first.Hits) == 0 {
		b.Fatal("range query matched nothing")
	}

	warmOnce := func() {
		resp, err := ds.Range(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Stats.CacheMisses != 0 || len(resp.Hits) != len(first.Hits) {
			b.Fatalf("warm query decoded %d blocks and found %d hits, want 0 and %d",
				resp.Stats.CacheMisses, len(resp.Hits), len(first.Hits))
		}
	}
	coldOnce := func() {
		cold, err := serve.Open(dir, serve.Config{CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := cold.Range(req)
		cold.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Hits) != len(first.Hits) {
			b.Fatalf("cold query found %d hits, warm found %d", len(resp.Hits), len(first.Hits))
		}
	}
	minOver := func(reps int, f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A warm query is tens of microseconds, so sampling its minimum
		// widely is cheap and filters scheduler noise out of the ratio.
		warmD := minOver(40, warmOnce)
		coldD := minOver(10, coldOnce)
		ratio := float64(coldD) / float64(warmD)
		b.ReportMetric(float64(warmD.Microseconds()), "warm-us")
		b.ReportMetric(float64(coldD.Microseconds()), "cold-us")
		b.ReportMetric(ratio, "cold/warm")
		if ratio < 5 {
			b.Fatalf("a warm query is only %.1fx faster than open + decode + query (warm %v, cold %v), want >= 5x",
				ratio, warmD, coldD)
		}
	}
}

// BenchmarkColdStartQuery measures the end-to-end "file on disk to first
// range-query answer" path that motivated the format: parse or scan, then
// keep the samples inside the window and box. VTB pushes the whole predicate
// into the block layer; CSV must parse everything first.
func BenchmarkColdStartQuery(b *testing.B) {
	vtb, csvBytes, _ := vtbBenchImage(b)
	box := geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(14, 10)}
	pred := colstore.Predicate{HasTime: true, T0: 100, T1: 160, HasFloor: true, Floor: 0, HasBox: true, Box: box}

	b.Run("csv", func(b *testing.B) {
		b.SetBytes(int64(len(csvBytes)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			samples, err := storage.ReadTrajectoryCSV(bytes.NewReader(csvBytes))
			if err != nil {
				b.Fatal(err)
			}
			var hits []trajectory.Sample
			for _, s := range samples {
				if pred.MatchTrajectory(s) {
					hits = append(hits, s)
				}
			}
		}
	})
	b.Run("vtb", func(b *testing.B) {
		b.SetBytes(int64(len(vtb)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := colstore.NewTrajectoryReader(bytes.NewReader(vtb), int64(len(vtb)))
			if err != nil {
				b.Fatal(err)
			}
			var hits []trajectory.Sample
			if _, err := storage.Each(r.Cursor(pred), func(s trajectory.Sample) { hits = append(hits, s) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// vtbBenchFile persists the shared benchmark dataset as a VTB file on disk
// for the file-backed (mmap vs pread) benchmarks, returning the path and the
// row count.
func vtbBenchFile(b *testing.B, opts colstore.Options) (string, int) {
	b.Helper()
	samples := benchSamples(b)
	path := filepath.Join(b.TempDir(), "trajectory.vtb")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := colstore.NewTrajectoryWriter(f, opts)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path, len(samples)
}

// BenchmarkVTBScanMmapVsReaderAt is the acceptance gate for the zero-copy
// reader: a full scan of a memory-mapped file must not be slower than the
// same scan through io.ReaderAt preads. The file is written uncompressed so
// the comparison isolates the I/O path — raw-codec blocks decode straight
// out of the mapped page-cache region with zero copies, while the pread path
// must issue two syscalls and one payload copy per block. Both sides are
// timed as the minimum over several runs (page cache warm for both), with a
// 10% noise allowance on the gate.
func BenchmarkVTBScanMmapVsReaderAt(b *testing.B) {
	path, n := vtbBenchFile(b, colstore.Options{BlockSize: 1024, Codec: colstore.CodecRaw})
	mm, err := colstore.OpenTrajectory(path, colstore.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer mm.Close()
	pr, err := colstore.OpenTrajectory(path, colstore.OpenOptions{DisableMmap: true})
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Close()

	scan := func(r *colstore.TrajectoryReader) time.Duration {
		start := time.Now()
		rows := 0
		cur := r.Cursor(colstore.Predicate{})
		for cur.Next() {
			rows += cur.Batch().Len()
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != n {
			b.Fatalf("scanned %d rows, want %d", rows, n)
		}
		return time.Since(start)
	}
	minOver := func(r *colstore.TrajectoryReader, reps int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			if d := scan(r); d < best {
				best = d
			}
		}
		return best
	}
	scan(mm) // warm the page cache and decode pools
	scan(pr)

	for _, side := range []struct {
		name string
		r    *colstore.TrajectoryReader
	}{{"mmap", mm}, {"readerat", pr}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scan(side.r)
			}
			b.ReportMetric(float64(n), "rows/op")
		})
	}

	if !mm.Mmapped() {
		return // platform without mmap: nothing to gate
	}
	mmD := minOver(mm, 9)
	prD := minOver(pr, 9)
	b.ReportMetric(float64(prD)/float64(mmD), "readerat/mmap")
	if float64(mmD) > 1.1*float64(prD) {
		b.Fatalf("mmap scan is slower than ReaderAt: mmap %v vs readerat %v", mmD, prD)
	}
}

// BenchmarkVTBScanAllocs is the acceptance gate for the allocation-light
// scan pipeline: after one warm-up pass (which fills the scratch pool and
// the string-interning table), a full-file cursor scan must stay within a
// fixed allocation budget. Before the batch/pooling rework a scan of this
// file cost tens of thousands of allocations (one per decoded column slice,
// dictionary string, and flate reader); the budget fails the build if
// per-row or per-block-decode allocations ever creep back in.
//
// Three sub-benchmarks, three budgets: the raw (uncompressed) file proves
// the cursor pipeline itself is allocation-free — a small constant
// independent of rows and blocks — vsnap (the default codec) must match
// that same constant because its decoder works entirely inside pooled
// scratch, while the flate-era fixture additionally pays stdlib flate's
// internal per-stream Huffman table allocations (a handful per block, not
// poolable from outside the package), so its budget scales with block count
// and nothing else. BenchmarkVTBScanCompressedAllocs tightens the vsnap
// case to exactly zero.
func BenchmarkVTBScanAllocs(b *testing.B) {
	cases := []struct {
		name   string
		opts   colstore.Options
		path   string // a checked-in file to scan instead of one written with opts
		budget func(blocks int) float64
	}{
		// Constant budget: cursor struct + pool/GC slack. ~12k rows in ~12
		// blocks, so anything O(rows) or O(blocks) blows through at once.
		{"raw", colstore.Options{BlockSize: 1024, Codec: colstore.CodecRaw}, "",
			func(int) float64 { return 16 }},
		// Same constant budget as raw: vsnap decode reuses the pooled
		// scratch output, so compression must cost no allocations.
		{"vsnap", colstore.Options{BlockSize: 1024, Codec: colstore.CodecVSnap}, "",
			func(int) float64 { return 16 }},
		// Per-block budget: flate's dynamic-Huffman decode allocates its
		// link tables per stream (7 to 20 allocs/block, by the stream's
		// code lengths); everything else must stay flat — the file's 439
		// rows would blow through at once. Nothing writes flate any more,
		// so this reads the checked-in flate-era file.
		{"flate", colstore.Options{}, "internal/colstore/testdata/flate/trajectory.vtb",
			func(blocks int) float64 { return 16 + 25*float64(blocks) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			path := tc.path
			if path == "" {
				path, _ = vtbBenchFile(b, tc.opts)
			}
			r, err := colstore.OpenTrajectory(path, colstore.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			n, blocks := r.Len(), len(r.Blocks())
			scanOnce := func() {
				rows := 0
				cur := r.Cursor(colstore.Predicate{})
				for cur.Next() {
					rows += cur.Batch().Len()
				}
				if err := cur.Close(); err != nil {
					b.Fatal(err)
				}
				if rows != n {
					b.Fatalf("scanned %d rows, want %d", rows, n)
				}
			}
			scanOnce() // steady state: pools filled, strings interned
			allocs := testing.AllocsPerRun(5, scanOnce)
			budget := tc.budget(blocks)
			if allocs > budget {
				b.Fatalf("steady-state scan costs %.0f allocs over %d blocks, budget %.0f",
					allocs, blocks, budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanOnce()
			}
			// Reported after the loop: ResetTimer discards earlier metrics.
			b.ReportMetric(allocs, "allocs/scan")
			b.ReportMetric(allocs/float64(n), "allocs/row")
		})
	}
}

// BenchmarkVTBScanCompressedAllocs is the acceptance gate for the vsnap
// codec's headline property: a steady-state cursor scan of a
// vsnap-compressed file costs ZERO allocations — not a budget, an exact
// zero, the same figure the uncompressed raw path achieves. The decoder
// writes into the pooled scratch buffer and keeps no per-block state, so
// once the pool is warm nothing on the block-decode path may touch the
// heap. Any regression (a forgotten buffer reuse, an error path that
// formats eagerly, a new per-block slice) fails the build here before it
// can show up as a latency cliff in serving.
func BenchmarkVTBScanCompressedAllocs(b *testing.B) {
	path, n := vtbBenchFile(b, colstore.Options{BlockSize: 1024, Codec: colstore.CodecVSnap})
	r, err := colstore.OpenTrajectory(path, colstore.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	scanOnce := func() {
		rows := 0
		cur := r.Cursor(colstore.Predicate{})
		for cur.Next() {
			rows += cur.Batch().Len()
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != n {
			b.Fatalf("scanned %d rows, want %d", rows, n)
		}
	}
	scanOnce() // fill the scratch pool and interning table
	allocs := testing.AllocsPerRun(10, scanOnce)
	if allocs != 0 {
		b.Fatalf("steady-state vsnap cursor scan costs %.0f allocs, want exactly 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanOnce()
	}
	b.ReportMetric(allocs, "allocs/scan") // after the loop: ResetTimer discards earlier metrics
}

// benchReaderSource serves plan scans from an already-open reader, so a
// benchmark measures the per-query cost (compile + cursor + drain) without
// re-paying file open and footer parse on every iteration.
type benchReaderSource struct{ r *colstore.TrajectoryReader }

func (s benchReaderSource) Open(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	return s.r.Cursor(pred), nil
}

// BenchmarkPlanTraceOverhead is the pay-for-what-you-use gate for
// per-operator query tracing: a plan compiled WITHOUT tracing must cost the
// same small constant number of steady-state allocations it cost before
// tracing existed — no spans, no timing wrappers, nothing O(rows) or
// O(blocks). Opting in (CompileTraced) may only add a per-operator constant
// on top: one span and one wrapper per operator, never per-row or per-block
// work. Both gates fail the build on regression.
func BenchmarkPlanTraceOverhead(b *testing.B) {
	path, _ := vtbBenchFile(b, colstore.Options{BlockSize: 1024, Codec: colstore.CodecRaw})
	r, err := colstore.OpenTrajectory(path, colstore.OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	src := benchReaderSource{r: r}
	scan := func(traced bool) {
		p := plan.NewScan(src).Filter(plan.TimeBetween(100, 160))
		var c *plan.Compiled
		var err error
		if traced {
			c, err = p.CompileTraced()
		} else {
			c, err = p.Compile()
		}
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for c.Next() {
			rows += c.Batch().Traj.Len()
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("plan scan matched nothing")
		}
		if traced == (c.Trace() == nil) {
			b.Fatal("trace presence does not match the compile mode")
		}
	}
	scan(false) // steady state: scratch pools filled, strings interned
	scan(true)
	untraced := testing.AllocsPerRun(10, func() { scan(false) })
	traced := testing.AllocsPerRun(10, func() { scan(true) })
	// The untraced budget is the plan-scan constant (compile nodes + cursor +
	// batch bookkeeping) with GC slack; an O(rows) or O(blocks) regression
	// overshoots it immediately.
	const untracedBudget = 64
	if untraced > untracedBudget {
		b.Fatalf("untraced plan scan costs %.0f allocs, budget %d — tracing is no longer free when off",
			untraced, untracedBudget)
	}
	if delta := traced - untraced; delta > 32 {
		b.Fatalf("tracing adds %.0f allocs per query; want a small per-operator constant", delta)
	}
	b.ReportMetric(untraced, "allocs/untraced")
	b.ReportMetric(traced-untraced, "allocs/trace-delta")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(false)
	}
}

// benchBatchSource serves prepared batches as a plan leaf, so an operator
// benchmark pays nothing below the operator it measures.
type benchBatchSource []*colstore.TrajectoryBatch

func (s benchBatchSource) Open(colstore.Predicate) (storage.TrajectoryCursor, error) {
	return &benchBatchCursor{batches: s}, nil
}

type benchBatchCursor struct {
	batches []*colstore.TrajectoryBatch
	next    int
}

func (c *benchBatchCursor) Next() bool                       { c.next++; return c.next <= len(c.batches) }
func (c *benchBatchCursor) Batch() *colstore.TrajectoryBatch { return c.batches[c.next-1] }
func (c *benchBatchCursor) Err() error                       { return nil }
func (c *benchBatchCursor) Stats() colstore.ScanStats        { return colstore.ScanStats{} }
func (c *benchBatchCursor) PeakDecodedBytes() int64          { return 0 }
func (c *benchBatchCursor) Close() error                     { return nil }

// BenchmarkPlanOrderBy times the blocking sort on 20 000 rows in 4 096-row
// batches, in the two shapes that bracket it. "dwell" is the served dwell
// plan's sort — (obj, t) over a stream that arrives in time order, 125
// objects a second — where the t key is skipped after one pass and obj takes
// one radix pass. "shuffled" is the worst case: two float keys over random
// coordinates, every key byte varying. Both report ns/row and fail past a
// fixed allocation budget: a steady-state OrderBy buffers in pooled scratch,
// so its allocations are the plan's own constant, whatever the row count.
func BenchmarkPlanOrderBy(b *testing.B) {
	const rows, objects, batchRows = 20000, 125, 4096
	r := rng.New(12)
	var src benchBatchSource
	for i := 0; i < rows; i++ {
		if i%batchRows == 0 {
			src = append(src, &colstore.TrajectoryBatch{})
		}
		src[len(src)-1].Append(trajectory.Sample{
			ObjID: i % objects,
			Loc:   model.At("mall", i%3, fmt.Sprintf("shop-%d", (i/7)%40), geom.Pt(r.Float64()*200, r.Float64()*80)),
			T:     float64(i / objects),
		})
	}
	for _, shape := range []struct {
		name    string
		keys    []plan.SortKey
		ordered func(tr *colstore.TrajectoryBatch, i int) bool // rows i-1, i in order
	}{
		{"dwell", []plan.SortKey{plan.Asc(plan.ColObjID), plan.Asc(plan.ColT)},
			func(tr *colstore.TrajectoryBatch, i int) bool {
				return tr.ObjID[i-1] < tr.ObjID[i] || tr.ObjID[i-1] == tr.ObjID[i] && tr.T[i-1] <= tr.T[i]
			}},
		{"shuffled", []plan.SortKey{plan.Asc(plan.ColX), plan.Desc(plan.ColY)},
			func(tr *colstore.TrajectoryBatch, i int) bool {
				return tr.X[i-1] < tr.X[i] || tr.X[i-1] == tr.X[i] && tr.Y[i-1] >= tr.Y[i]
			}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			sortOnce := func() {
				c, err := plan.NewScan(src).OrderBy(shape.keys...).Compile()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for c.Next() {
					tr := c.Batch().Traj
					for i := 1; i < tr.Len(); i++ {
						if !shape.ordered(tr, i) {
							b.Fatalf("rows %d and %d out of order", i-1, i)
						}
					}
					n += tr.Len()
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				if n != rows {
					b.Fatalf("sorted %d rows, want %d", n, rows)
				}
			}
			sortOnce() // fill the scratch pool
			// The plan's nodes, the compiled tree and the cursor: a dozen
			// objects, with slack for a GC emptying the pool mid-measurement.
			// Anything per row or per batch overshoots at once.
			const budget = 48
			allocs := testing.AllocsPerRun(10, sortOnce)
			if allocs > budget {
				b.Fatalf("steady-state OrderBy of %d rows costs %.0f allocs, budget %d", rows, allocs, budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sortOnce()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(allocs, "allocs/sort")
		})
	}
}

// BenchmarkPlanSnapshotAt times the fold under the served kNN and density
// plans on the window they scan: 300 objects sampled once a second for the
// 21 s around the instant (6 300 rows in 4 096-row batches, time order),
// reduced to one interpolated row per object. It reports ns/row and fails
// past a fixed allocation budget: the fold keeps two rows per object, so what
// it allocates grows with the logarithm of the object count (a map, the
// per-object slice and the output columns doubling) and never with the row
// count.
func BenchmarkPlanSnapshotAt(b *testing.B) {
	const objects, seconds, batchRows = 300, 21, 4096
	const rows = objects * seconds
	r := rng.New(15)
	var src benchBatchSource
	for i := 0; i < rows; i++ {
		if i%batchRows == 0 {
			src = append(src, &colstore.TrajectoryBatch{})
		}
		src[len(src)-1].Append(trajectory.Sample{
			ObjID: i % objects,
			Loc:   model.At("mall", i%3, fmt.Sprintf("shop-%d", (i/7)%40), geom.Pt(r.Float64()*200, r.Float64()*80)),
			T:     float64(i / objects),
		})
	}
	snapshotOnce := func() {
		c, err := plan.NewScan(src).SnapshotAt(10.5, 10).Compile()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for c.Next() {
			tr := c.Batch().Traj
			for i, id := range tr.ObjID {
				if id != int64(n+i) || tr.T[i] != 10.5 {
					b.Fatalf("row %d is object %d at t=%g, want object %d at t=10.5", n+i, id, tr.T[i], n+i)
				}
			}
			n += tr.Len()
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if n != objects {
			b.Fatalf("snapshot has %d rows, want %d", n, objects)
		}
	}
	// Measured at 14: the plan's nodes, the compiled tree and the cursor. The
	// fold's map, bracket columns and output are pooled scratch; a GC emptying
	// the pool mid-measurement re-grows them once (220 allocs, a tenth of it
	// per measured run), and a per-row allocation would cost thousands.
	const budget = 48
	allocs := testing.AllocsPerRun(10, snapshotOnce)
	if allocs > budget {
		b.Fatalf("SnapshotAt over %d rows costs %.0f allocs, budget %d", rows, allocs, budget)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotOnce()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	b.ReportMetric(allocs, "allocs/snapshot")
}

// BenchmarkPlanAggregate times Aggregate in the two shapes the served plans
// use. "dwell" is Dataset.Dwell's two-level roll-up over 20 000 rows in
// (obj, t) order — 125 objects, each visiting a new shop every 30 s — after
// Derive(DwellGaps): the first level sees runs of one key per visit, so it
// pays one hash lookup per visit, not per row. "density" is Dataset.Density's
// one-level count over 300 rows in object order with every partition drawn at
// random, so runs have length 1 and the run check must cost less than it
// saves. Partition strings are shared, as a decoded block's dictionary
// column shares them. Both report ns/row and fail past a fixed allocation
// budget: group tables, accumulators and output are pooled scratch.
func BenchmarkPlanAggregate(b *testing.B) {
	shops := make([]string, 40)
	for i := range shops {
		shops[i] = fmt.Sprintf("shop-%d", i)
	}
	mk := func(rows, objects, batchRows int, part func(i int) int) (benchBatchSource, int) {
		var src benchBatchSource
		pairs := map[[2]int]bool{}
		for i := 0; i < rows; i++ {
			if i%batchRows == 0 {
				src = append(src, &colstore.TrajectoryBatch{})
			}
			obj, p := i/(rows/objects), part(i)
			pairs[[2]int{obj, p}] = true
			src[len(src)-1].Append(trajectory.Sample{
				ObjID: obj,
				Loc:   model.At("mall", 0, shops[p], geom.Pt(0, 0)),
				T:     float64(i % (rows / objects)),
			})
		}
		return src, len(pairs)
	}
	r := rng.New(22)
	dwellSrc, dwellPairs := mk(20000, 125, 4096, func(i int) int { return (i/160 + i%160/30) % 40 })
	densitySrc, densityPairs := mk(300, 300, 4096, func(int) int { return r.Intn(40) })
	// Budgets: the plan's nodes, the compiled tree and the cursor (measured
	// at 38 and 18), plus a tenth of one run with the pools emptied by a GC
	// (337 and 129 allocs). An allocation per group — a map key, a state
	// slice — overshoots at once (dwell has ~700 groups in its first level,
	// density 40).
	for _, shape := range []struct {
		name   string
		rows   int
		plan   func() *plan.Plan
		pairs  int // distinct (object, partition) pairs: what the counts add up to
		budget float64
	}{
		{"dwell", 20000, func() *plan.Plan {
			return plan.NewScan(dwellSrc).Derive(plan.DwellGaps(10)).
				Aggregate(plan.By(plan.ColPartition, plan.ColObjID), plan.Sum(plan.ColVal, plan.ColVal)).
				Aggregate(plan.By(plan.ColPartition), plan.Sum(plan.ColVal, plan.ColVal), plan.CountInto(plan.ColObjID))
		}, dwellPairs, 96},
		{"density", 300, func() *plan.Plan {
			return plan.NewScan(densitySrc).Aggregate(plan.By(plan.ColPartition), plan.CountInto(plan.ColObjID))
		}, densityPairs, 48},
	} {
		b.Run(shape.name, func(b *testing.B) {
			aggregateOnce := func() {
				c, err := shape.plan().Compile()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for c.Next() {
					tr := c.Batch().Traj
					for i, obj := range tr.ObjID {
						if i > 0 && tr.Partition[i-1] >= tr.Partition[i] {
							b.Fatalf("groups %q and %q out of order", tr.Partition[i-1], tr.Partition[i])
						}
						n += int(obj)
					}
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
				if n != shape.pairs {
					b.Fatalf("counts add up to %d, want %d", n, shape.pairs)
				}
			}
			aggregateOnce() // fill the scratch pools
			allocs := testing.AllocsPerRun(10, aggregateOnce)
			if allocs > shape.budget {
				b.Fatalf("steady-state Aggregate of %d rows costs %.0f allocs, budget %.0f", shape.rows, allocs, shape.budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aggregateOnce()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.rows), "ns/row")
			b.ReportMetric(allocs, "allocs/aggregate")
		})
	}
}
