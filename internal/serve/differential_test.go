package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// The differential test: seeded random datasets and seeded random requests,
// every dataset kind at every block-cache budget, and the brute-force oracle
// (oracle_test.go) over ALL of a dataset's rows. It never filters with the
// operator's own scan predicate, so a window widened by the wrong amount, a
// filter on the wrong side of SnapshotAt, or a tie broken by scan order
// instead of input order shows up as a differing byte.
//
// Every time and coordinate is a multiple of 1/16: sums and differences are
// then exact in float64, CSV's 4-decimal quantization loses nothing, and
// "within MaxGap" means the same thing however it is computed.

// diffGrid snaps v down to the 1/16 grid.
func diffGrid(v float64) float64 { return float64(int(v*16)) / 16 }

// diffBigID is added to every third object's ID, and diffBigFloor is one of
// the floors: both lie beyond int32, the width of a VTB zone map's bounds.
const (
	diffBigID    = 3_000_000_000
	diffBigFloor = 1 << 33
)

// diffRows generates a dataset that has every shape the operators branch on:
// objects that appear and disappear mid-span, sampling gaps below, at and
// above maxGap, staircase floor changes, symbolic (point-less) rows, rows
// without a partition, repeated (object, time) rows, and object IDs and
// floors too large for int32. Rows come back sorted by (T, ObjID) — the
// order every pipeline-written file has — with duplicates in generation
// order.
func diffRows(r *rand.Rand, maxGap float64) []trajectory.Sample {
	const span = 300.0
	parts := []string{"lobby", "shop-a", "shop-b", "stairs", "hall", ""}
	floors := []int{0, 1, 2, diffBigFloor}
	steps := []float64{0.5, 1, 1, 1, 2, maxGap - 0.5, maxGap, maxGap + 0.5, 3 * maxGap}
	var out []trajectory.Sample
	for n := 0; n < 10+r.Intn(15); n++ {
		obj := n
		if n%3 == 2 {
			obj += diffBigID
		}
		t, end := 0.0, span
		if r.Intn(3) > 0 { // two thirds live only part of the span
			t = diffGrid(r.Float64() * span * 0.8)
			end = t + diffGrid(r.Float64()*(span-t))
		}
		fi := r.Intn(len(floors))
		x, y := diffGrid(r.Float64()*40), diffGrid(r.Float64()*20)
		for ; t <= end; t += steps[r.Intn(len(steps))] {
			if r.Intn(25) == 0 {
				fi = (fi + 1 + r.Intn(len(floors)-1)) % len(floors) // took the stairs
			}
			floor := floors[fi]
			x = diffGrid(min(40, max(0, x+r.Float64()*4-2)))
			y = diffGrid(min(20, max(0, y+r.Float64()*4-2)))
			loc := model.At("mall", floor, parts[r.Intn(len(parts))], geom.Pt(x, y))
			if r.Intn(20) == 0 {
				loc = model.Location{Building: "mall", Floor: floor, Partition: loc.Partition}
			}
			out = append(out, trajectory.Sample{ObjID: obj, Loc: loc, T: t})
			if r.Intn(30) == 0 { // the same instant reported twice, differently
				dup := model.At("mall", floor, "dup", geom.Pt(diffGrid(r.Float64()*40), y))
				out = append(out, trajectory.Sample{ObjID: obj, Loc: dup, T: t})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].ObjID < out[j].ObjID
	})
	return out
}

// diffRequest is one generated request: exactly one field is set.
type diffRequest struct {
	rng   *RangeRequest
	knn   *KNNRequest
	den   *DensityRequest
	traj  *TrajRequest
	watch *WatchRequest
	info  bool
}

// diffWindow draws a time window: usually a slice of the span, sometimes
// inverted, wholly outside the data, a single instant, or everything.
func diffWindow(r *rand.Rand) (t0, t1 float64) {
	a, b := diffGrid(r.Float64()*340-20), diffGrid(r.Float64()*340-20)
	switch r.Intn(10) {
	case 0:
		return max(a, b) + 1, min(a, b) // inverted
	case 1:
		return 1000 + a, 2000 + b // after the data
	case 2:
		return a, a // one instant
	case 3:
		return 0, 1e18 // everything
	}
	return min(a, b), max(a, b)
}

func diffFloor(r *rand.Rand) int {
	return []int{-1, 0, 1, 2, 7, diffBigFloor}[r.Intn(6)] // 7: a floor nobody is on
}

func diffRequests(r *rand.Rand, rows []trajectory.Sample, n int) []diffRequest {
	reqs := make([]diffRequest, 0, n)
	for len(reqs) < n {
		switch r.Intn(10) {
		case 0, 1, 2:
			q := RangeRequest{Floor: diffFloor(r)}
			q.T0, q.T1 = diffWindow(r)
			a := geom.Pt(diffGrid(r.Float64()*50-5), diffGrid(r.Float64()*30-5))
			b := geom.Pt(diffGrid(r.Float64()*50-5), diffGrid(r.Float64()*30-5))
			q.Box = geom.BBox{Min: geom.Pt(min(a.X, b.X), min(a.Y, b.Y)), Max: geom.Pt(max(a.X, b.X), max(a.Y, b.Y))}
			switch r.Intn(8) {
			case 0: // degenerate: exactly one sample's point
				p := rows[r.Intn(len(rows))].Loc.Point
				q.Box = geom.BBox{Min: p, Max: p}
			case 1: // inverted
				q.Box.Min, q.Box.Max = q.Box.Max.Add(geom.Pt(1, 1)), q.Box.Min
			}
			reqs = append(reqs, diffRequest{rng: &q})
		case 3, 4:
			q := KNNRequest{
				Floor: diffFloor(r),
				At:    geom.Pt(diffGrid(r.Float64()*40), diffGrid(r.Float64()*20)),
				T:     diffGrid(r.Float64()*340 - 20),
				K:     []int{-1, 0, 1, 2, 3, 5, 8, 1000}[r.Intn(8)],
			}
			reqs = append(reqs, diffRequest{knn: &q})
		case 5, 6:
			reqs = append(reqs, diffRequest{den: &DensityRequest{T: diffGrid(r.Float64()*340 - 20)}})
		case 7:
			q := TrajRequest{Obj: r.Intn(28)} // some IDs belong to nobody
			if r.Intn(2) == 0 {
				q.Obj += diffBigID
			}
			q.T0, q.T1 = diffWindow(r)
			reqs = append(reqs, diffRequest{traj: &q})
		case 8:
			q := WatchRequest{Floor: diffFloor(r)}
			a := geom.Pt(diffGrid(r.Float64()*40), diffGrid(r.Float64()*20))
			b := geom.Pt(diffGrid(r.Float64()*40), diffGrid(r.Float64()*20))
			switch r.Intn(4) {
			case 0: // every row
				q.Box = geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(41, 21)}
			case 1: // no row
				q.Box = geom.BBox{Min: geom.Pt(50, 30), Max: geom.Pt(60, 40)}
			default: // some rows
				q.Box = geom.BBox{Min: geom.Pt(min(a.X, b.X), min(a.Y, b.Y)), Max: geom.Pt(max(a.X, b.X), max(a.Y, b.Y))}
			}
			reqs = append(reqs, diffRequest{watch: &q})
		default:
			reqs = append(reqs, diffRequest{info: true})
		}
	}
	return reqs
}

// diffServed answers a request from the dataset.
func diffServed(ds *Dataset, req diffRequest) (any, error) {
	switch {
	case req.rng != nil:
		return ds.Range(*req.rng)
	case req.knn != nil:
		return ds.KNN(*req.knn)
	case req.den != nil:
		return ds.Density(*req.den)
	case req.traj != nil:
		return ds.Traj(*req.traj)
	case req.watch != nil:
		return ds.Watch(*req.watch)
	}
	return ds.Info(false)
}

// diffBody is a response's JSON without the keys an oracle cannot produce.
// The remaining values keep their exact bytes, so null and [] stay distinct.
func diffBody(t *testing.T, resp any) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(jsonBytes(t, resp), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "stats")
	delete(m, "trace")
	return string(jsonBytes(t, m))
}

// datasetKind is one on-disk shape of a row set.
type datasetKind struct {
	name, dir string
	segments  int
}

// datasetKinds writes rows as every kind of dataset Open serves: a flat VTB
// file, a segment log rolled every segRows rows, a CSV file, and a CSV file
// holding the rows in shuffled order.
func datasetKinds(t *testing.T, rows []trajectory.Sample, segRows int) []datasetKind {
	t.Helper()
	shuffled := slices.Clone(rows)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	flat, logDir, csvDir, shufDir := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeDataset(t, flat, storage.FormatVTB, rows)
	writeSegmented(t, logDir, rows, segRows)
	writeDataset(t, csvDir, storage.FormatCSV, rows)
	writeDataset(t, shufDir, storage.FormatCSV, shuffled)
	return []datasetKind{
		{"vtb", flat, 0},
		{"segment log", logDir, (len(rows) + segRows - 1) / segRows},
		{"csv", csvDir, 0},
		{"csv in shuffled row order", shufDir, 0},
	}
}

// cacheBudgets returns the Config.CacheBytes values every answer must hold
// under: the default, room for exactly one decoded block of the dataset in
// dir — less than one window, so the cache evicts blocks the cursor is still
// reading — and nothing kept at all.
func cacheBudgets(t *testing.T, dir string) []int64 {
	t.Helper()
	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	src, err := ds.pinSource()
	if err != nil {
		t.Fatal(err)
	}
	defer src.release()
	block, err := src.set.segs[0].tr.DecodeBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	return []int64{0, block.Bytes(), -1}
}

func TestServedOperatorsMatchIndexOverAllRows(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		maxGap := []float64{10, 4, 10, 2.5, 10}[seed-1]
		rows := diffRows(r, maxGap)
		reqs := diffRequests(r, rows, 220)
		for _, kind := range datasetKinds(t, rows, len(rows)/4+1) {
			for _, budget := range cacheBudgets(t, kind.dir) {
				t.Run(fmt.Sprintf("seed %d/%s/cache %d", seed, kind.name, budget), func(t *testing.T) {
					ds, err := Open(kind.dir, Config{MaxGap: maxGap, CacheBytes: budget, WatchInterval: -1})
					if err != nil {
						t.Fatal(err)
					}
					defer ds.Close()
					if got := ds.Segments(); got != kind.segments {
						t.Fatalf("%d segments, want %d", got, kind.segments)
					}
					// The oracle holds the rows as the dataset's file holds them:
					// CSV cannot say a row has no point, so it reads back with one.
					held := rows
					if ds.Format() == storage.FormatCSV {
						held = readTrajectoryFile(t, filepath.Join(kind.dir, "trajectory.csv"))
					}
					if ds.Len() != len(held) {
						t.Fatalf("Len = %d, want %d", ds.Len(), len(held))
					}
					o := newOracle(held, maxGap)
					// Twice: on whatever the first pass left in the cache.
					for pass := 0; pass < 2; pass++ {
						for i, req := range reqs {
							resp, err := diffServed(ds, req)
							if err != nil {
								t.Fatalf("pass %d request %d: %v", pass, i, err)
							}
							// One differing answer is enough to read.
							if got, want := diffBody(t, resp), diffBody(t, o.answer(req)); got != want {
								t.Fatalf("pass %d request %d differs from the oracle over all rows:\ngot:  %s\nwant: %s", pass, i, got, want)
							}
						}
					}
				})
			}
		}
	}
}
