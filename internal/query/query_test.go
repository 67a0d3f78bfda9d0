package query

import (
	"math"
	"sort"
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/trajectory"
)

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

func TestRangeMatchesBruteForce(t *testing.T) {
	samples := syntheticSamples(1, 20, 300)
	ix := NewTrajectoryIndex(samples, Options{BucketWidth: 30})
	if ix.Len() != len(samples) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(samples))
	}
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		box := geom.BBox{Min: geom.Pt(r.Range(0, 90), r.Range(0, 40))}
		box.Max = box.Min.Add(geom.Pt(r.Range(5, 40), r.Range(5, 25)))
		t0 := r.Range(0, 250)
		t1 := t0 + r.Range(0, 80)
		floor := r.Intn(2)

		got := ix.Range(floor, box, t0, t1)
		var want []trajectory.Sample
		for _, s := range samples {
			if s.Loc.Floor == floor && s.T >= t0 && s.T <= t1 && box.Contains(s.Loc.Point) {
				want = append(want, s)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d samples, want %d", trial, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].ObjID > got[i].ObjID ||
				(got[i-1].ObjID == got[i].ObjID && got[i-1].T > got[i].T) {
				t.Fatal("Range results not ordered by (object, time)")
			}
		}
	}
	// All-floors variant covers everything in the window.
	all := ix.Range(-1, geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}, 0, 300)
	if len(all) != len(samples) {
		t.Fatalf("all-floor full-window Range = %d, want %d", len(all), len(samples))
	}
}

func TestRangeObjects(t *testing.T) {
	samples := syntheticSamples(3, 10, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	objs := ix.RangeObjects(0, geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}, 0, 60)
	want := []int{0, 2, 4, 6, 8} // even IDs are on floor 0
	if len(objs) != len(want) {
		t.Fatalf("RangeObjects = %v, want %v", objs, want)
	}
	for i := range want {
		if objs[i] != want[i] {
			t.Fatalf("RangeObjects = %v, want %v", objs, want)
		}
	}
}

func TestKNNAtSampleInstant(t *testing.T) {
	samples := syntheticSamples(4, 30, 120)
	ix := NewTrajectoryIndex(samples, Options{BucketWidth: 20})
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		// Query exactly at a sample time, so positions equal stored samples
		// and brute force needs no interpolation.
		at := float64(r.Intn(121))
		floor := r.Intn(2)
		p := geom.Pt(r.Range(0, 100), r.Range(0, 50))
		k := 1 + r.Intn(8)

		got := ix.KNN(floor, p, at, k)

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

// TestUnboundedTimeWindows: windows far wider than the data span must clamp
// to the indexed buckets instead of iterating (or overflowing) bucket
// numbers.
func TestUnboundedTimeWindows(t *testing.T) {
	samples := syntheticSamples(9, 5, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	all := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}

	if got := ix.Range(-1, all, 0, 1e18); len(got) != len(samples) {
		t.Fatalf("Range(..., 0, 1e18) = %d samples, want %d", len(got), len(samples))
	}
	if got := ix.Range(-1, all, math.Inf(-1), math.Inf(1)); len(got) != len(samples) {
		t.Fatalf("Range(..., -Inf, +Inf) = %d samples, want %d", len(got), len(samples))
	}
	// Windows entirely outside the span, or inverted, are empty.
	if got := ix.Range(-1, all, 1000, 2000); got != nil {
		t.Fatalf("out-of-span Range = %d samples", len(got))
	}
	if got := ix.Range(-1, all, 50, 10); got != nil {
		t.Fatalf("inverted-window Range = %d samples", len(got))
	}
	if got := NewTrajectoryIndex(nil, DefaultOptions()).Range(-1, all, 0, 1e18); got != nil {
		t.Fatalf("empty-index Range = %d samples", len(got))
	}
}

// TestKNNAllFloors: a negative floor ranks objects across every floor, like
// Range and Subscribe.
func TestKNNAllFloors(t *testing.T) {
	samples := syntheticSamples(10, 10, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	got := ix.KNN(-1, geom.Pt(50, 25), 30, 10)
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

func TestInterpolation(t *testing.T) {
	mk := func(x, y, tt float64, floor int) trajectory.Sample {
		return trajectory.Sample{ObjID: 7, Loc: model.At("b", floor, "P", geom.Pt(x, y)), T: tt}
	}
	ix := NewTrajectoryIndex([]trajectory.Sample{
		mk(0, 0, 0, 0), mk(10, 20, 10, 0), // straight segment
		mk(10, 20, 60, 1), // floor change after a 50s gap
	}, Options{MaxGap: 15})

	// Midpoint of the first segment.
	loc, ok := ix.PositionAt(7, 5)
	if !ok || math.Abs(loc.Point.X-5) > 1e-9 || math.Abs(loc.Point.Y-10) > 1e-9 {
		t.Fatalf("midpoint = %v ok=%v, want (5,10)", loc, ok)
	}
	// Quarter point.
	loc, _ = ix.PositionAt(7, 2.5)
	if math.Abs(loc.Point.X-2.5) > 1e-9 || math.Abs(loc.Point.Y-5) > 1e-9 {
		t.Fatalf("quarter = %v, want (2.5,5)", loc)
	}
	// Before the first sample but within MaxGap: clamp to the first sample.
	if loc, ok = ix.PositionAt(7, -5); !ok || loc.Point.X != 0 {
		t.Fatalf("pre-start clamp = %v ok=%v", loc, ok)
	}
	// Far before the first sample: unobserved.
	if _, ok = ix.PositionAt(7, -100); ok {
		t.Fatal("object observed 100s before its first sample")
	}
	// Inside the 30s gap, near the earlier endpoint: snap to it, no
	// cross-gap interpolation.
	loc, ok = ix.PositionAt(7, 12)
	if !ok || loc.Point.X != 10 || loc.Floor != 0 {
		t.Fatalf("gap snap lo = %v ok=%v", loc, ok)
	}
	// Inside the gap, near the later endpoint: snap to the floor-1 sample.
	loc, ok = ix.PositionAt(7, 50)
	if !ok || loc.Floor != 1 {
		t.Fatalf("gap snap hi = %v ok=%v", loc, ok)
	}
	// Dead center of the gap, farther than MaxGap from both: unobserved.
	if _, ok = ix.PositionAt(7, 35); ok {
		t.Fatal("object observed mid-gap beyond MaxGap")
	}
	// Unknown object.
	if _, ok = ix.PositionAt(99, 5); ok {
		t.Fatal("unknown object observed")
	}
}

func TestDensity(t *testing.T) {
	mk := func(id int, part string, x float64) trajectory.Sample {
		return trajectory.Sample{ObjID: id, Loc: model.At("b", 0, part, geom.Pt(x, 0)), T: 10}
	}
	ix := NewTrajectoryIndex([]trajectory.Sample{
		mk(1, "A", 1), mk(2, "A", 2), mk(3, "B", 60),
	}, DefaultOptions())
	d := ix.Density(10)
	if d["A"] != 2 || d["B"] != 1 {
		t.Fatalf("Density = %v, want A:2 B:1", d)
	}
	fd := ix.FloorDensity(10)
	if fd[0] != 3 {
		t.Fatalf("FloorDensity = %v, want 0:3", fd)
	}
	// Long after the last sample everyone is unobserved.
	if d := ix.Density(1000); len(d) != 0 {
		t.Fatalf("Density(1000) = %v, want empty", d)
	}
}

func TestObjectTrajectory(t *testing.T) {
	samples := syntheticSamples(6, 5, 100)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	got := ix.ObjectTrajectory(3, 10, 20)
	if len(got) != 11 {
		t.Fatalf("ObjectTrajectory = %d samples, want 11", len(got))
	}
	for i, s := range got {
		if s.ObjID != 3 || s.T != 10+float64(i) {
			t.Fatalf("ObjectTrajectory[%d] = obj %d t %.0f", i, s.ObjID, s.T)
		}
	}
	if got := ix.ObjectTrajectory(3, 500, 600); got != nil {
		t.Fatal("out-of-span trajectory not empty")
	}
	if got := ix.ObjectTrajectory(42, 0, 100); got != nil {
		t.Fatal("unknown object trajectory not empty")
	}
}

func TestTimeSpanAndAccessors(t *testing.T) {
	empty := NewTrajectoryIndex(nil, DefaultOptions())
	if _, _, ok := empty.TimeSpan(); ok {
		t.Fatal("empty index has a time span")
	}
	samples := syntheticSamples(7, 4, 50)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	t0, t1, ok := ix.TimeSpan()
	if !ok || t0 != 0 || t1 != 50 {
		t.Fatalf("TimeSpan = [%v, %v] ok=%v", t0, t1, ok)
	}
	if got := ix.Objects(); len(got) != 4 {
		t.Fatalf("Objects = %v", got)
	}
	if got := ix.Floors(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Floors = %v", got)
	}
}

func TestContinuousRangeQuery(t *testing.T) {
	eng := NewContinuousEngine()
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	var events []Event
	sub := eng.Subscribe(0, box, func(e Event) { events = append(events, e) })

	mk := func(id int, x float64, floor int, tt float64) trajectory.Sample {
		return trajectory.Sample{ObjID: id, Loc: model.At("b", floor, "P", geom.Pt(x, 5)), T: tt}
	}
	eng.Feed(mk(1, 5, 0, 0))  // enter
	eng.Feed(mk(1, 6, 0, 1))  // move
	eng.Feed(mk(2, 50, 0, 1)) // outside: no event
	eng.Feed(mk(1, 20, 0, 2)) // exit
	eng.Feed(mk(2, 5, 1, 2))  // wrong floor: no event
	eng.Feed(mk(2, 5, 0, 3))  // enter

	want := []EventKind{Enter, Move, Exit, Enter}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Fatalf("event %d = %s, want %s", i, events[i].Kind, k)
		}
	}
	if in := sub.Inside(); len(in) != 1 || in[0] != 2 {
		t.Fatalf("Inside = %v, want [2]", in)
	}

	eng.Unsubscribe(sub)
	eng.Feed(mk(2, 6, 0, 4))
	if len(events) != len(want) {
		t.Fatal("events fired after Unsubscribe")
	}

	// All-floor subscription sees both floors.
	n := 0
	eng.Subscribe(-1, box, func(Event) { n++ })
	eng.FeedAll([]trajectory.Sample{mk(3, 5, 0, 5), mk(4, 5, 1, 5)})
	if n != 2 {
		t.Fatalf("all-floor subscription saw %d events, want 2", n)
	}
}

// TestContinuousMatchesOfflineRange: replaying a dataset through a standing
// query must visit exactly the objects the offline Range query reports.
func TestContinuousMatchesOfflineRange(t *testing.T) {
	samples := syntheticSamples(8, 15, 200)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	box := geom.BBox{Min: geom.Pt(20, 10), Max: geom.Pt(70, 40)}

	eng := NewContinuousEngine()
	entered := make(map[int]bool)
	eng.Subscribe(0, box, func(e Event) {
		if e.Kind == Enter {
			entered[e.Sample.ObjID] = true
		}
	})
	eng.FeedAll(samples)

	want := ix.RangeObjects(0, box, 0, 200)
	if len(entered) != len(want) {
		t.Fatalf("continuous saw %d objects, offline range saw %d", len(entered), len(want))
	}
	for _, id := range want {
		if !entered[id] {
			t.Fatalf("object %d in offline range but never entered standing query", id)
		}
	}
}

// TestKNNMoreThanPopulation: k larger than the object count must return
// every observable object once, still nearest-first, and never pad.
func TestKNNMoreThanPopulation(t *testing.T) {
	samples := syntheticSamples(11, 4, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())

	got := ix.KNN(-1, geom.Pt(50, 25), 30, 1000)
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
	for _, n := range ix.KNN(1, geom.Pt(50, 25), 30, 1000) {
		if n.Loc.Floor != 1 {
			t.Errorf("floor-1 kNN returned object on floor %d", n.Loc.Floor)
		}
	}
}

// TestEmptyTimeWindows: inverted and out-of-span windows must come back
// empty from every operator instead of panicking or scanning.
func TestEmptyTimeWindows(t *testing.T) {
	samples := syntheticSamples(12, 6, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}

	for name, window := range map[string][2]float64{
		"inverted":    {40, 10},
		"before data": {-100, -50},
		"after data":  {1e6, 2e6},
	} {
		t0, t1 := window[0], window[1]
		if got := ix.Range(-1, box, t0, t1); len(got) != 0 {
			t.Errorf("%s window: Range returned %d samples", name, len(got))
		}
		if got := ix.RangeObjects(-1, box, t0, t1); len(got) != 0 {
			t.Errorf("%s window: RangeObjects returned %d objects", name, len(got))
		}
		if got := ix.ObjectTrajectory(0, t0, t1); len(got) != 0 {
			t.Errorf("%s window: ObjectTrajectory returned %d samples", name, len(got))
		}
	}

	// An empty index rejects every window.
	empty := NewTrajectoryIndex(nil, DefaultOptions())
	if got := empty.Range(-1, box, 0, 100); len(got) != 0 {
		t.Errorf("empty index Range returned %d samples", len(got))
	}
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("empty index reported a time span")
	}
}

// TestRangeUnknownFloor: floors with no data — above, below, or between the
// indexed ones — must yield empty results, not errors.
func TestRangeUnknownFloor(t *testing.T) {
	samples := syntheticSamples(13, 6, 60)
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}

	for _, floor := range []int{2, 7, -5} {
		fl := floor
		if fl < 0 {
			// Negative means "all floors" to Range; use a floor that is
			// simply absent instead.
			fl = 99
		}
		if got := ix.Range(fl, box, 0, 60); len(got) != 0 {
			t.Errorf("floor %d: Range returned %d samples", fl, len(got))
		}
		if got := ix.KNN(fl, geom.Pt(50, 25), 30, 3); len(got) != 0 {
			t.Errorf("floor %d: KNN returned %d neighbors", fl, len(got))
		}
	}
}

// TestDuplicateSamplesKeepInputOrder pins the order of samples that tie on
// (object, time): Range and ObjectTrajectory return them in input order
// whatever the input size, bucket layout, floor, or position in the box —
// the R-tree's packing order and the sort's pivots must not show through.
func TestDuplicateSamplesKeepInputOrder(t *testing.T) {
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)}
	for _, n := range []int{3, 40, 500} {
		var samples []trajectory.Sample
		for t := 0; t < 20; t++ {
			// n rows of one object at one instant, told apart only by their
			// partition name; x runs against input order and floors alternate,
			// so neither spatial packing nor bucket iteration reproduces it.
			for k := 0; k < n; k++ {
				samples = append(samples, trajectory.Sample{
					ObjID: 7,
					Loc:   model.At("b", k%2, "dup-"+string(rune('a'+k%26)), geom.Pt(float64(n-k)/float64(n)*90, float64(k%50))),
					T:     float64(t),
				})
			}
		}
		ix := NewTrajectoryIndex(samples, Options{BucketWidth: 7})
		for name, got := range map[string][]trajectory.Sample{
			"Range":            ix.Range(-1, box, 0, 1e9),
			"ObjectTrajectory": ix.ObjectTrajectory(7, 0, 1e9),
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
	ix := NewTrajectoryIndex(samples, DefaultOptions())
	got := ix.Range(0, geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(1, 1)}, 0, 10)
	if len(got) != 1 || got[0] != samples[1] {
		t.Errorf("Range = %+v, want only the coordinate sample", got)
	}
}
