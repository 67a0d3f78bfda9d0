package serve_test

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/serve"
	"vita/internal/trajectory"
)

// These tests pin what a query answer means. Every question (range, kNN,
// density, trajectory, info, watch) is asked of a serve.Dataset written from
// the synthetic samples, the one engine that answers them, and checked
// against brute force; the standing query also against its oracle,
// serve.WatchOracle.

// syntheticSamples produces nObj random walks over two floors, one sample per
// second for dur seconds. Objects with odd IDs live on floor 1.
func syntheticSamples(seed uint64, nObj int, dur float64) []trajectory.Sample {
	r := rng.New(seed)
	var out []trajectory.Sample
	for id := 0; id < nObj; id++ {
		floor := id % 2
		x, y := r.Range(0, 100), r.Range(0, 50)
		for t := 0.0; t <= dur; t++ {
			x = clamp(x+r.Range(-1.5, 1.5), 0, 100)
			y = clamp(y+r.Range(-1.5, 1.5), 0, 50)
			part := "A"
			if x > 50 {
				part = "B"
			}
			out = append(out, trajectory.Sample{
				ObjID: id,
				Loc:   model.At("b", floor, part, geom.Pt(x, y)),
				T:     t,
			})
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// served writes samples, in slice order, as a VTB dataset of small blocks
// and opens it the way vitaserve does.
func served(t testing.TB, samples []trajectory.Sample, cfg serve.Config) *serve.Dataset {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "trajectory.vtb"))
	if err != nil {
		t.Fatal(err)
	}
	w := colstore.NewTrajectoryWriter(f, colstore.Options{BlockSize: 128})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := serve.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// ask runs one operator and fails the test on an error.
func ask[Q, R any](t *testing.T, op func(Q) (R, error), q Q) R {
	t.Helper()
	resp, err := op(q)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func info(t *testing.T, ds *serve.Dataset) *serve.InfoResponse {
	t.Helper()
	resp, err := ds.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var everywhere = geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}

func TestRangeMatchesBruteForce(t *testing.T) {
	samples := syntheticSamples(1, 20, 300)
	ds := served(t, samples, serve.Config{})
	if n := info(t, ds).Samples; n != len(samples) {
		t.Fatalf("Samples = %d, want %d", n, len(samples))
	}
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		box := geom.BBox{Min: geom.Pt(r.Range(0, 90), r.Range(0, 40))}
		box.Max = box.Min.Add(geom.Pt(r.Range(5, 40), r.Range(5, 25)))
		t0 := r.Range(0, 250)
		t1 := t0 + r.Range(0, 80)
		floor := r.Intn(2)

		got := ask(t, ds.Range, serve.RangeRequest{Floor: floor, Box: box, T0: t0, T1: t1}).Hits
		// The samples are generated object by object in time order, so the
		// filter's output is already ordered by (object, time).
		var want []trajectory.Sample
		for _, s := range samples {
			if s.Loc.Floor == floor && s.T >= t0 && s.T <= t1 && box.Contains(s.Loc.Point) {
				want = append(want, s)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %d samples, want %d in (object, time) order", trial, len(got), len(want))
		}
	}
	// All-floors variant covers everything in the window.
	all := ask(t, ds.Range, serve.RangeRequest{Floor: -1, Box: everywhere, T0: 0, T1: 300})
	if len(all.Hits) != len(samples) {
		t.Fatalf("all-floor full-window Range = %d, want %d", len(all.Hits), len(samples))
	}
}

func TestRangeObjects(t *testing.T) {
	ds := served(t, syntheticSamples(3, 10, 60), serve.Config{})
	objs := ask(t, ds.Range, serve.RangeRequest{Floor: 0, Box: everywhere, T0: 0, T1: 60}).Objects
	if want := []int{0, 2, 4, 6, 8}; !slices.Equal(objs, want) { // even IDs are on floor 0
		t.Fatalf("Objects = %v, want %v", objs, want)
	}
}

func TestKNNAtSampleInstant(t *testing.T) {
	samples := syntheticSamples(4, 30, 120)
	ds := served(t, samples, serve.Config{})
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		// Query exactly at a sample time, so positions equal stored samples
		// and brute force needs no interpolation.
		at := float64(r.Intn(121))
		floor := r.Intn(2)
		p := geom.Pt(r.Range(0, 100), r.Range(0, 50))
		k := 1 + r.Intn(8)

		got := ask(t, ds.KNN, serve.KNNRequest{Floor: floor, At: p, T: at, K: k}).Neighbors

		type cand struct {
			id int
			d  float64
		}
		var want []cand
		for _, s := range samples {
			if s.T == at && s.Loc.Floor == floor {
				want = append(want, cand{id: s.ObjID, d: p.Dist(s.Loc.Point)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].d != want[j].d {
				return want[i].d < want[j].d
			}
			return want[i].id < want[j].id
		})
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: KNN returned %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ObjID != want[i].id || math.Abs(got[i].Dist-want[i].d) > 1e-9 {
				t.Fatalf("trial %d: KNN[%d] = obj %d dist %.4f, want obj %d dist %.4f",
					trial, i, got[i].ObjID, got[i].Dist, want[i].id, want[i].d)
			}
		}
	}
}

// TestUnboundedTimeWindows: windows far wider than the data span answer
// everything; windows outside it, inverted ones and an empty dataset answer
// nothing.
func TestUnboundedTimeWindows(t *testing.T) {
	samples := syntheticSamples(9, 5, 60)
	ds := served(t, samples, serve.Config{})
	rangeHits := func(ds *serve.Dataset, t0, t1 float64) int {
		return len(ask(t, ds.Range, serve.RangeRequest{Floor: -1, Box: everywhere, T0: t0, T1: t1}).Hits)
	}

	if got := rangeHits(ds, 0, 1e18); got != len(samples) {
		t.Fatalf("Range(..., 0, 1e18) = %d samples, want %d", got, len(samples))
	}
	if got := rangeHits(ds, math.Inf(-1), math.Inf(1)); got != len(samples) {
		t.Fatalf("Range(..., -Inf, +Inf) = %d samples, want %d", got, len(samples))
	}
	if got := rangeHits(ds, 1000, 2000); got != 0 {
		t.Fatalf("out-of-span Range = %d samples", got)
	}
	if got := rangeHits(ds, 50, 10); got != 0 {
		t.Fatalf("inverted-window Range = %d samples", got)
	}
	if got := rangeHits(served(t, nil, serve.Config{}), 0, 1e18); got != 0 {
		t.Fatalf("empty-dataset Range = %d samples", got)
	}
}

// TestKNNAllFloors: a negative floor ranks objects across every floor, like
// Range and Subscribe.
func TestKNNAllFloors(t *testing.T) {
	ds := served(t, syntheticSamples(10, 10, 60), serve.Config{})
	got := ask(t, ds.KNN, serve.KNNRequest{Floor: -1, At: geom.Pt(50, 25), T: 30, K: 10}).Neighbors
	if len(got) != 10 {
		t.Fatalf("all-floor KNN = %d neighbors, want all 10 objects", len(got))
	}
	floors := map[int]bool{}
	for _, n := range got {
		floors[n.Loc.Floor] = true
	}
	if len(floors) != 2 {
		t.Fatalf("all-floor KNN covered floors %v, want both", floors)
	}
}

// TestInterpolation pins the instant queries' position of one object: the
// lone neighbor an all-floor kNN finds is where the object is at t.
func TestInterpolation(t *testing.T) {
	mk := func(x, y, tt float64, floor int) trajectory.Sample {
		return trajectory.Sample{ObjID: 7, Loc: model.At("b", floor, "P", geom.Pt(x, y)), T: tt}
	}
	ds := served(t, []trajectory.Sample{
		mk(0, 0, 0, 0), mk(10, 20, 10, 0), // straight segment
		mk(10, 20, 60, 1), // floor change after a 50s gap
	}, serve.Config{MaxGap: 15})
	positionAt := func(at float64) (model.Location, bool) {
		nn := ask(t, ds.KNN, serve.KNNRequest{Floor: -1, T: at, K: 1}).Neighbors
		if len(nn) == 0 {
			return model.Location{}, false
		}
		return nn[0].Loc, true
	}

	// Midpoint of the first segment.
	loc, ok := positionAt(5)
	if !ok || math.Abs(loc.Point.X-5) > 1e-9 || math.Abs(loc.Point.Y-10) > 1e-9 {
		t.Fatalf("midpoint = %v ok=%v, want (5,10)", loc, ok)
	}
	// Quarter point.
	loc, _ = positionAt(2.5)
	if math.Abs(loc.Point.X-2.5) > 1e-9 || math.Abs(loc.Point.Y-5) > 1e-9 {
		t.Fatalf("quarter = %v, want (2.5,5)", loc)
	}
	// Before the first sample but within MaxGap: clamp to the first sample.
	if loc, ok = positionAt(-5); !ok || loc.Point.X != 0 {
		t.Fatalf("pre-start clamp = %v ok=%v", loc, ok)
	}
	// Far before the first sample: unobserved.
	if _, ok = positionAt(-100); ok {
		t.Fatal("object observed 100s before its first sample")
	}
	// Inside the 50s gap, near the earlier endpoint: snap to it, no
	// cross-gap interpolation.
	loc, ok = positionAt(12)
	if !ok || loc.Point.X != 10 || loc.Floor != 0 {
		t.Fatalf("gap snap lo = %v ok=%v", loc, ok)
	}
	// Inside the gap, near the later endpoint: snap to the floor-1 sample.
	loc, ok = positionAt(50)
	if !ok || loc.Floor != 1 {
		t.Fatalf("gap snap hi = %v ok=%v", loc, ok)
	}
	// Dead center of the gap, farther than MaxGap from both: unobserved.
	if _, ok = positionAt(35); ok {
		t.Fatal("object observed mid-gap beyond MaxGap")
	}
}

func TestDensity(t *testing.T) {
	mk := func(id int, part string, x float64) trajectory.Sample {
		return trajectory.Sample{ObjID: id, Loc: model.At("b", 0, part, geom.Pt(x, 0)), T: 10}
	}
	ds := served(t, []trajectory.Sample{
		mk(1, "A", 1), mk(2, "A", 2), mk(3, "B", 60),
	}, serve.Config{})
	d := ask(t, ds.Density, serve.DensityRequest{T: 10}).Counts
	if len(d) != 2 || d["A"] != 2 || d["B"] != 1 {
		t.Fatalf("Density = %v, want A:2 B:1", d)
	}
	// Long after the last sample everyone is unobserved.
	if d := ask(t, ds.Density, serve.DensityRequest{T: 1000}).Counts; len(d) != 0 {
		t.Fatalf("Density(1000) = %v, want empty", d)
	}
}

func TestObjectTrajectory(t *testing.T) {
	ds := served(t, syntheticSamples(6, 5, 100), serve.Config{})
	traj := func(obj int, t0, t1 float64) []trajectory.Sample {
		return ask(t, ds.Traj, serve.TrajRequest{Obj: obj, T0: t0, T1: t1}).Samples
	}
	got := traj(3, 10, 20)
	if len(got) != 11 {
		t.Fatalf("Traj = %d samples, want 11", len(got))
	}
	for i, s := range got {
		if s.ObjID != 3 || s.T != 10+float64(i) {
			t.Fatalf("Traj[%d] = obj %d t %.0f", i, s.ObjID, s.T)
		}
	}
	if got := traj(3, 500, 600); got != nil {
		t.Fatal("out-of-span trajectory not empty")
	}
	if got := traj(42, 0, 100); got != nil {
		t.Fatal("unknown object trajectory not empty")
	}
}

func TestTimeSpanAndAccessors(t *testing.T) {
	if !info(t, served(t, nil, serve.Config{})).Empty {
		t.Fatal("empty dataset has a time span")
	}
	samples := syntheticSamples(7, 4, 50)
	in := info(t, served(t, samples, serve.Config{}))
	if in.Empty || in.T0 != 0 || in.T1 != 50 {
		t.Fatalf("time span = [%v, %v] empty=%v", in.T0, in.T1, in.Empty)
	}
	if in.Samples != len(samples) || in.Objects != 4 {
		t.Fatalf("Samples = %d, Objects = %d", in.Samples, in.Objects)
	}
	if !slices.Equal(in.Floors, []int{0, 1}) {
		t.Fatalf("Floors = %v", in.Floors)
	}
}

// watchMatchesOracle asks ds to watch q and requires the oracle's events and
// inside set over samples.
func watchMatchesOracle(t *testing.T, ds *serve.Dataset, samples []trajectory.Sample, q serve.WatchRequest) *serve.WatchResponse {
	t.Helper()
	got, want := ask(t, ds.Watch, q), serve.WatchOracle(samples, q)
	if !slices.Equal(got.Events, want.Events) || !slices.Equal(got.Inside, want.Inside) {
		t.Fatalf("Watch(%+v) = %d events, inside %v; the oracle has %d events, inside %v",
			q, len(got.Events), got.Inside, len(want.Events), want.Inside)
	}
	return got
}

func TestWatchRangeQuery(t *testing.T) {
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	mk := func(id int, x float64, floor int, tt float64) trajectory.Sample {
		return trajectory.Sample{ObjID: id, Loc: model.At("b", floor, "P", geom.Pt(x, 5)), T: tt}
	}
	samples := []trajectory.Sample{
		mk(1, 5, 0, 0),  // enter
		mk(1, 6, 0, 1),  // move: not reported
		mk(2, 50, 0, 1), // outside: no event
		mk(1, 20, 0, 2), // exit
		mk(2, 5, 1, 2),  // wrong floor: no event
		mk(2, 5, 0, 3),  // enter
		mk(3, 5, 0, 5),  // enter
		mk(4, 5, 1, 5),  // floor 1: only the all-floor query sees it
	}
	ds := served(t, samples, serve.Config{})
	for _, c := range []struct {
		floor  int
		kinds  []string
		inside []int
	}{
		{0, []string{"enter", "exit", "enter", "enter"}, []int{2, 3}},
		{-1, []string{"enter", "exit", "enter", "enter", "enter"}, []int{2, 3, 4}},
	} {
		resp := watchMatchesOracle(t, ds, samples, serve.WatchRequest{Floor: c.floor, Box: box})
		var kinds []string
		for _, e := range resp.Events {
			kinds = append(kinds, e.Kind)
		}
		if !slices.Equal(kinds, c.kinds) || !slices.Equal(resp.Inside, c.inside) {
			t.Errorf("floor %d: events %v, inside %v; want %v, inside %v", c.floor, kinds, resp.Inside, c.kinds, c.inside)
		}
	}
}

// TestWatchMatchesOfflineRange: replaying a dataset through a standing
// query must enter exactly the objects that have a sample in the region.
func TestWatchMatchesOfflineRange(t *testing.T) {
	samples := syntheticSamples(8, 15, 200)
	box := geom.BBox{Min: geom.Pt(20, 10), Max: geom.Pt(70, 40)}
	ds := served(t, samples, serve.Config{})

	entered := make(map[int]bool)
	for _, e := range watchMatchesOracle(t, ds, samples, serve.WatchRequest{Floor: 0, Box: box}).Events {
		if e.Kind == "enter" {
			entered[e.Sample.ObjID] = true
		}
	}

	want := make(map[int]bool)
	for _, s := range samples {
		if s.Loc.Floor == 0 && box.Contains(s.Loc.Point) {
			want[s.ObjID] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("no object ever entered the region")
	}
	if len(entered) != len(want) {
		t.Fatalf("watch saw %d objects, brute force saw %d", len(entered), len(want))
	}
	for id := range want {
		if !entered[id] {
			t.Fatalf("object %d has a sample in the region but never entered the standing query", id)
		}
	}
}

// TestKNNMoreThanPopulation: k larger than the object count must return
// every observable object once, still nearest-first, and never pad.
func TestKNNMoreThanPopulation(t *testing.T) {
	ds := served(t, syntheticSamples(11, 4, 60), serve.Config{})
	knn := func(floor int) []serve.Neighbor {
		return ask(t, ds.KNN, serve.KNNRequest{Floor: floor, At: geom.Pt(50, 25), T: 30, K: 1000}).Neighbors
	}

	got := knn(-1)
	if len(got) > 4 {
		t.Fatalf("KNN returned %d neighbors for 4 objects", len(got))
	}
	if len(got) == 0 {
		t.Fatal("KNN returned nothing at a mid-run instant")
	}
	seen := map[int]bool{}
	for i, n := range got {
		if seen[n.ObjID] {
			t.Errorf("object %d returned twice", n.ObjID)
		}
		seen[n.ObjID] = true
		if i > 0 && got[i-1].Dist > n.Dist {
			t.Errorf("neighbors out of order at %d: %g > %g", i, got[i-1].Dist, n.Dist)
		}
	}
	// Same query restricted to one floor: only that floor's objects.
	for _, n := range knn(1) {
		if n.Loc.Floor != 1 {
			t.Errorf("floor-1 kNN returned object on floor %d", n.Loc.Floor)
		}
	}
}

// TestEmptyTimeWindows: inverted and out-of-span windows must come back
// empty from every operator instead of failing or scanning.
func TestEmptyTimeWindows(t *testing.T) {
	ds := served(t, syntheticSamples(12, 6, 60), serve.Config{})

	for name, window := range map[string][2]float64{
		"inverted":    {40, 10},
		"before data": {-100, -50},
		"after data":  {1e6, 2e6},
	} {
		t0, t1 := window[0], window[1]
		resp := ask(t, ds.Range, serve.RangeRequest{Floor: -1, Box: everywhere, T0: t0, T1: t1})
		if len(resp.Hits) != 0 {
			t.Errorf("%s window: Range returned %d samples", name, len(resp.Hits))
		}
		if len(resp.Objects) != 0 {
			t.Errorf("%s window: Range returned %d objects", name, len(resp.Objects))
		}
		if got := ask(t, ds.Traj, serve.TrajRequest{Obj: 0, T0: t0, T1: t1}).Samples; len(got) != 0 {
			t.Errorf("%s window: Traj returned %d samples", name, len(got))
		}
	}

	// An empty dataset answers every window with nothing.
	empty := served(t, nil, serve.Config{})
	if got := ask(t, empty.Range, serve.RangeRequest{Floor: -1, Box: everywhere, T0: 0, T1: 100}).Hits; len(got) != 0 {
		t.Errorf("empty dataset Range returned %d samples", len(got))
	}
	if !info(t, empty).Empty {
		t.Error("empty dataset reported a time span")
	}
}

// TestRangeUnknownFloor: floors with no data — above or between the stored
// ones — must yield empty results, not errors.
func TestRangeUnknownFloor(t *testing.T) {
	ds := served(t, syntheticSamples(13, 6, 60), serve.Config{})

	for _, floor := range []int{2, 7, 99} {
		if got := ask(t, ds.Range, serve.RangeRequest{Floor: floor, Box: everywhere, T0: 0, T1: 60}).Hits; len(got) != 0 {
			t.Errorf("floor %d: Range returned %d samples", floor, len(got))
		}
		if got := ask(t, ds.KNN, serve.KNNRequest{Floor: floor, At: geom.Pt(50, 25), T: 30, K: 3}).Neighbors; len(got) != 0 {
			t.Errorf("floor %d: KNN returned %d neighbors", floor, len(got))
		}
	}
}

// TestDuplicateSamplesKeepInputOrder pins the order of samples that tie on
// (object, time): Range and Traj return them in input order whatever the
// input size, block layout, floor, or position in the box.
func TestDuplicateSamplesKeepInputOrder(t *testing.T) {
	for _, n := range []int{3, 40, 500} {
		var samples []trajectory.Sample
		for t := 0; t < 20; t++ {
			// n rows of one object at one instant, told apart only by their
			// partition name; x runs against input order and floors alternate,
			// so neither a spatial order nor a per-floor pass reproduces it.
			for k := 0; k < n; k++ {
				samples = append(samples, trajectory.Sample{
					ObjID: 7,
					Loc:   model.At("b", k%2, "dup-"+string(rune('a'+k%26)), geom.Pt(float64(n-k)/float64(n)*90, float64(k%50))),
					T:     float64(t),
				})
			}
		}
		ds := served(t, samples, serve.Config{})
		for name, got := range map[string][]trajectory.Sample{
			"Range": ask(t, ds.Range, serve.RangeRequest{Floor: -1, Box: everywhere, T0: 0, T1: 1e9}).Hits,
			"Traj":  ask(t, ds.Traj, serve.TrajRequest{Obj: 7, T0: 0, T1: 1e9}).Samples,
		} {
			if len(got) != len(samples) {
				t.Fatalf("n=%d %s: %d samples, want %d", n, name, len(got), len(samples))
			}
			for i := range got {
				if got[i] != samples[i] {
					t.Fatalf("n=%d %s: row %d is %+v, input order has %+v", n, name, i, got[i], samples[i])
				}
			}
		}
	}
}

// TestRangeSkipsSymbolicSamples: a sample without a point lies in no box,
// even one covering the zero point its coordinates default to.
func TestRangeSkipsSymbolicSamples(t *testing.T) {
	samples := []trajectory.Sample{
		{ObjID: 1, Loc: model.AtPartition("b", 0, "lobby"), T: 1},
		{ObjID: 1, Loc: model.At("b", 0, "lobby", geom.Pt(0, 0)), T: 2},
	}
	ds := served(t, samples, serve.Config{})
	got := ask(t, ds.Range, serve.RangeRequest{Floor: 0, Box: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(1, 1)}, T0: 0, T1: 10}).Hits
	if len(got) != 1 || got[0] != samples[1] {
		t.Errorf("Range = %+v, want only the coordinate sample", got)
	}
}
