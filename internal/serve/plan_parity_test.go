package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/plan"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// These tests pin the plan-rewrite guarantee: every operator executes as a
// compiled plan, and the answers must be byte-identical to the brute-force
// oracle's (oracle_test.go). The comparison is on JSON bytes, the exact
// encoding both the HTTP API and the CLI formatters consume.

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameJSON(t *testing.T, name string, got, want any) {
	t.Helper()
	g, w := jsonBytes(t, got), jsonBytes(t, want)
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs from reference:\ngot:  %s\nwant: %s", name, g, w)
	}
}

// TestPlanOperatorParity checks, on every dataset kind and at every block-
// cache budget (see cacheBudgets), that the plan-compiled operators return
// exactly the oracle's rows. The rows are exact under CSV's quantization and
// unique per (object, time), so one oracle serves every kind, the shuffled
// CSV included.
func TestPlanOperatorParity(t *testing.T) {
	samples := testSamples()
	ref := newOracle(samples, DefaultMaxGap) // Dataset is opened with the default MaxGap
	box := geom.BBox{Min: geom.Pt(1.5, 0.25), Max: geom.Pt(17.75, 9.5)}

	for _, kind := range datasetKinds(t, samples, 1500) {
		for _, budget := range cacheBudgets(t, kind.dir) {
			t.Run(fmt.Sprintf("%s/cache %d", kind.name, budget), func(t *testing.T) {
				ds, err := Open(kind.dir, Config{CacheBytes: budget, WatchInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()

				// Range: time window + box + floor all push into the scan.
				rq := RangeRequest{Floor: 0, Box: box, T0: 33.5, T1: 147.25}
				rresp, err := ds.Range(rq)
				if err != nil {
					t.Fatal(err)
				}
				if len(rresp.Hits) == 0 {
					t.Fatal("range matched nothing")
				}
				sameJSON(t, "range hits", rresp.Hits, ref.rangeQuery(rq).Hits)

				// KNN: window widened by MaxGap, floor left to the operator.
				kq := KNNRequest{Floor: 1, At: geom.Pt(10.125, 7.625), T: 420.5, K: 4}
				kresp, err := ds.KNN(kq)
				if err != nil {
					t.Fatal(err)
				}
				if len(kresp.Neighbors) == 0 {
					t.Fatal("knn matched nothing")
				}
				sameJSON(t, "knn neighbors", kresp.Neighbors, ref.knn(kq).Neighbors)

				// Density at an instant.
				dq := DensityRequest{T: 250}
				dresp, err := ds.Density(dq)
				if err != nil {
					t.Fatal(err)
				}
				if len(dresp.Counts) == 0 {
					t.Fatal("density matched nothing")
				}
				sameJSON(t, "density counts", dresp.Counts, ref.density(dq).Counts)

				// Trajectory retrieval for one object.
				tq := TrajRequest{Obj: 5, T0: 100, T1: 500}
				tresp, err := ds.Traj(tq)
				if err != nil {
					t.Fatal(err)
				}
				if len(tresp.Samples) == 0 {
					t.Fatal("traj matched nothing")
				}
				sameJSON(t, "traj samples", tresp.Samples, ref.traj(tq).Samples)

				// Dwell against an independent row-by-row re-computation.
				wq := DwellRequest{Floor: -1, T0: 50, T1: 450}
				wresp, err := ds.Dwell(wq)
				if err != nil {
					t.Fatal(err)
				}
				if len(wresp.Rooms) == 0 {
					t.Fatal("dwell matched nothing")
				}
				sameJSON(t, "dwell rooms", wresp.Rooms, ref.dwell(wq).Rooms)
			})
		}
	}
}

// TestPlanStatsAccounting checks what a request's Stats say about the one
// load path: misses are decodes, a repeat runs off the cache and decodes
// nothing, and a CSV dataset prunes like any other.
func TestPlanStatsAccounting(t *testing.T) {
	q := RangeRequest{Floor: 0,
		Box: geom.BBox{Min: geom.Pt(1.5, 0.25), Max: geom.Pt(17.75, 9.5)},
		T0:  33.5, T1: 147.25}

	t.Run("nothing kept", func(t *testing.T) {
		ds := openTestDataset(t, storage.FormatVTB, Config{CacheBytes: -1})
		for pass := 0; pass < 2; pass++ {
			resp, err := ds.Range(q)
			if err != nil {
				t.Fatal(err)
			}
			st := resp.Stats
			if st.Format != "vtb" {
				t.Errorf("format = %q", st.Format)
			}
			if st.Scan.BlocksPruned == 0 || st.Scan.BlocksScanned >= st.Scan.BlocksTotal {
				t.Errorf("pushed-down window pruned nothing: %+v", st.Scan)
			}
			if st.CacheHits != 0 || st.CacheMisses != st.Scan.BlocksScanned {
				t.Errorf("pass %d: hits %d, misses %d; want every one of the %d blocks scanned a miss",
					pass, st.CacheHits, st.CacheMisses, st.Scan.BlocksScanned)
			}
			if st.PeakDecodedBytes <= 0 {
				t.Errorf("a decoding request reports no peak: %+v", st)
			}
		}
	})

	t.Run("cached", func(t *testing.T) {
		ds := openTestDataset(t, storage.FormatVTB, Config{})
		first, err := ds.Range(q)
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.CacheMisses == 0 || first.Stats.PeakDecodedBytes <= 0 {
			t.Errorf("first pass should decode blocks: %+v", first.Stats)
		}
		second, err := ds.Range(q)
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats.CacheMisses != 0 || second.Stats.CacheHits != first.Stats.CacheMisses || second.Stats.PeakDecodedBytes != 0 {
			t.Errorf("second pass did not run off the block cache: %+v", second.Stats)
		}
		sameJSON(t, "cached-pass hits", second.Hits, first.Hits)
	})

	t.Run("csv", func(t *testing.T) {
		ds := openTestDataset(t, storage.FormatCSV, Config{})
		resp, err := ds.Range(q)
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Stats
		if st.Format != "csv" {
			t.Errorf("format = %q", st.Format)
		}
		// The file's time-ordered rows were cut into blocks at open, so the
		// window prunes: not every row is read.
		if st.Scan.BlocksPruned == 0 || st.Scan.RowsScanned >= len(testSamples()) {
			t.Errorf("time window over CSV pruned nothing: %+v", st.Scan)
		}
		if st.Scan.RowsMatched == 0 || st.Scan.RowsMatched >= st.Scan.RowsScanned {
			t.Errorf("implausible match count: %+v", st.Scan)
		}
		if st.CacheMisses != st.Scan.BlocksScanned {
			t.Errorf("misses %d != blocks decoded %d", st.CacheMisses, st.Scan.BlocksScanned)
		}
	})
}

// TestDwellFloorFilter pins the floor predicate: a floor-restricted dwell
// must equal the reference computed over that floor only, and partitions
// only visited on the other floor must vanish.
func TestDwellFloorFilter(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	q := DwellRequest{Floor: 1, T0: 0, T1: 600}
	resp, err := ds.Dwell(q)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "floor-filtered dwell", resp.Rooms, newOracle(testSamples(), DefaultMaxGap).dwell(q).Rooms)
	all, err := ds.Dwell(DwellRequest{Floor: -1, T0: 0, T1: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rooms) == 0 || len(all.Rooms) == 0 {
		t.Fatal("dwell matched nothing")
	}
	var floorTotal, allTotal float64
	for _, r := range resp.Rooms {
		floorTotal += r.Seconds
	}
	for _, r := range all.Rooms {
		allTotal += r.Seconds
	}
	if floorTotal >= allTotal {
		t.Errorf("floor-filtered dwell %.1fs not below all-floors %.1fs", floorTotal, allTotal)
	}
}

// loadViaPlan runs pred through the path every operator takes — a compiled
// plan whose scan leaf is a planSource — and returns the rows, the request
// stats, and the leaf cursor the source opened.
func loadViaPlan(t *testing.T, ds *Dataset, preds []plan.Pred) ([]trajectory.Sample, Stats, storage.TrajectoryCursor) {
	t.Helper()
	src, err := ds.pinSource()
	if err != nil {
		t.Fatal(err)
	}
	defer src.release()
	c, err := plan.NewScan(src).Filter(preds...).Compile()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.CollectSamples(c)
	if err != nil {
		t.Fatal(err)
	}
	return rows, src.finalStats(), src.cur
}

// planPreds returns the plan predicates the planner pushes down into the
// scan as pred.
func planPreds(pred colstore.Predicate) []plan.Pred {
	var preds []plan.Pred
	if pred.HasTime {
		preds = append(preds, plan.TimeBetween(pred.T0, pred.T1))
	}
	if pred.HasFloor {
		preds = append(preds, plan.OnFloor(pred.Floor))
	}
	if pred.HasBox {
		preds = append(preds, plan.InBox(pred.Box))
	}
	if pred.HasObj {
		preds = append(preds, plan.ObjEq(pred.Obj))
	}
	return preds
}

// TestLoadPathParity pins the scan leaf: over a four-segment log, a single
// VTB file and a CSV file, for every predicate shape, a cold cache, the same
// cache warm and a dataset that keeps nothing return the same rows in the
// same order as a row-by-row filter of the source, with the same
// Stats.Scan; cache hits, misses and the decoded peak are those of the
// cache's temperature (cold and nothing kept: every scanned block a miss,
// decoded in some window; warm: every one a hit, nothing decoded).
//
// The log rolls every 1 500 rows of 8-per-second data, so its boundaries
// fall inside second 187 (equal T on both sides), exactly between seconds
// 374 and 375, and inside second 562: windows over the first and the last
// must merge by (T, ObjID), a window over the middle one may run the two
// segments back to back — and the test checks that is what was chosen.
func TestLoadPathParity(t *testing.T) {
	samples := testSamples()
	box := geom.BBox{Min: geom.Pt(1.5, 0.25), Max: geom.Pt(17.75, 9.5)}
	cases := []struct {
		name  string
		preds []plan.Pred
		// merged: whether the multi-segment load must (true) or must not
		// (false) go through the k-way merge; nil = either.
		merged *bool
	}{
		{"none", nil, ptr(true)},
		{"time only", []plan.Pred{plan.TimeBetween(100, 160)}, ptr(false)},
		{"floor", []plan.Pred{plan.OnFloor(1)}, nil},
		{"box", []plan.Pred{plan.InBox(box)}, nil},
		{"obj", []plan.Pred{plan.ObjEq(3)}, nil},
		{"all four", []plan.Pred{plan.TimeBetween(33.5, 447.25), plan.OnFloor(0), plan.InBox(box), plan.ObjEq(5)}, nil},
		{"empty, nothing pruned", []plan.Pred{plan.InBox(geom.BBox{Min: geom.Pt(0.55, 0.55), Max: geom.Pt(0.6, 0.6)})}, nil},
		{"empty, all pruned", []plan.Pred{plan.TimeBetween(1e6, 2e6)}, nil},
		{"straddles a boundary inside one second", []plan.Pred{plan.TimeBetween(180, 195)}, ptr(true)},
		{"straddles a boundary between seconds", []plan.Pred{plan.TimeBetween(370, 380)}, ptr(false)},
		{"the boundary second alone", []plan.Pred{plan.TimeBetween(187, 187)}, ptr(true)},
	}

	flat := t.TempDir()
	writeDataset(t, flat, storage.FormatVTB, samples)
	logDir := t.TempDir()
	writeSegmented(t, logDir, samples, 1500)
	csvDir := t.TempDir()
	writeDataset(t, csvDir, storage.FormatCSV, samples)
	open := func(dir string, cfg Config) *Dataset {
		cfg.WatchInterval = -1
		ds, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}

	for _, kind := range []struct {
		name, dir string
		segments  int
	}{{"segmented", logDir, 4}, {"single file", flat, 0}, {"csv", csvDir, 0}} {
		for _, tc := range cases {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				cached, streaming := open(kind.dir, Config{}), open(kind.dir, Config{CacheBytes: -1})

				coldRows, cold, leaf := loadViaPlan(t, cached, tc.preds)
				warmRows, warm, _ := loadViaPlan(t, cached, tc.preds)
				streamRows, stream, _ := loadViaPlan(t, streaming, tc.preds)

				// The predicate the planner pushed, applied row by row.
				c, err := plan.NewScan(&planSource{d: cached}).Filter(tc.preds...).Compile()
				if err != nil {
					t.Fatal(err)
				}
				pred := c.ScanPred()
				var want []trajectory.Sample
				for _, s := range samples {
					if pred.MatchTrajectory(s) {
						want = append(want, s)
					}
				}

				for _, got := range []struct {
					name  string
					rows  []trajectory.Sample
					stats Stats
					warm  bool
				}{
					{"cached cold", coldRows, cold, false},
					{"cached warm", warmRows, warm, true},
					{"nothing kept", streamRows, stream, false},
				} {
					if !slices.Equal(got.rows, want) {
						t.Errorf("%s: %d rows, differing from the %d a row filter keeps", got.name, len(got.rows), len(want))
					}
					if got.stats.Scan != cold.Scan {
						t.Errorf("%s: scan stats %+v, cached cold has %+v", got.name, got.stats.Scan, cold.Scan)
					}
					hits, misses := 0, cold.Scan.BlocksScanned
					if got.warm {
						hits, misses = misses, hits
					}
					if got.stats.CacheHits != hits || got.stats.CacheMisses != misses {
						t.Errorf("%s: cache hits/misses %d/%d, want %d/%d", got.name,
							got.stats.CacheHits, got.stats.CacheMisses, hits, misses)
					}
					if got.stats.Segments != kind.segments {
						t.Errorf("%s: segments = %d, want %d", got.name, got.stats.Segments, kind.segments)
					}
					if decoded := got.stats.PeakDecodedBytes > 0; decoded != (misses > 0) {
						t.Errorf("%s: peak %d decoded bytes with %d misses", got.name, got.stats.PeakDecodedBytes, misses)
					}
				}
				if cold.Scan.RowsMatched != len(want) || cold.Scan.BlocksScanned+cold.Scan.BlocksPruned != cold.Scan.BlocksTotal {
					t.Errorf("scan stats do not add up: %+v for %d rows", cold.Scan, len(want))
				}
				if _, single := leaf.(*blockCursor); kind.segments > 0 && tc.merged != nil && single == *tc.merged {
					t.Errorf("leaf is %T; merged should be %v", leaf, *tc.merged)
				}
			})
		}
	}
}

func ptr[T any](v T) *T { return &v }
