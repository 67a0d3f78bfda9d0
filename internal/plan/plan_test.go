package plan

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
	"vita/internal/trajectory"
)

// planSamples builds a deterministic mixed workload: 6 objects over 500
// seconds, two floors, three partitions, coordinates sweeping a 40×6 box.
func planSamples() []trajectory.Sample {
	parts := []string{"lobby", "lab", "hall"}
	var out []trajectory.Sample
	for t := 0; t < 500; t++ {
		for o := 0; o < 6; o++ {
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc:   model.At("hq", o%2, parts[(o+t/100)%3], geom.Pt(float64(t%40), float64(o))),
				T:     float64(t),
			})
		}
	}
	return out
}

// writeVTB writes samples to a VTB file with small blocks so zone-map
// pruning has something to prune.
func writeVTB(t *testing.T, samples []trajectory.Sample) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trajectory.vtb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := colstore.NewTrajectoryWriter(f, colstore.Options{BlockSize: 256})
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
	return path
}

func mustCompile(t *testing.T, p *Plan) *Compiled {
	t.Helper()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func collect(t *testing.T, p *Plan) []trajectory.Sample {
	t.Helper()
	got, err := CollectSamples(mustCompile(t, p))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameSamples(t *testing.T, got, want []trajectory.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ObjID != want[i].ObjID || got[i].Loc != want[i].Loc ||
			math.Float64bits(got[i].T) != math.Float64bits(want[i].T) {
			t.Fatalf("row %d differs: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestScanParity requires a bare Scan plan to yield exactly the rows of the
// underlying storage scan, for a VTB file and an in-memory slice.
func TestScanParity(t *testing.T) {
	samples := planSamples()
	path := writeVTB(t, samples)

	sources := map[string]Source{
		"file":  FileSource{Path: path},
		"slice": SliceSource{Samples: samples},
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			sameSamples(t, collect(t, NewScan(src)), samples)
		})
	}
}

// TestPushdownPredicate checks the planner folds the leading filter chain
// into the scan's block predicate exactly as the hand-built predicates the
// serve layer used to construct — the cache-key parity the serve rewrite
// relies on.
func TestPushdownPredicate(t *testing.T) {
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(20, 15)}
	src := SliceSource{}
	cases := []struct {
		name     string
		plan     *Plan
		want     colstore.Predicate
		residual bool
	}{
		{
			name: "range-shape",
			plan: NewScan(src).Filter(TimeBetween(0, 30), InBox(box), OnFloor(1)),
			want: colstore.Predicate{HasTime: true, T0: 0, T1: 30, HasBox: true, Box: box, HasFloor: true, Floor: 1},
		},
		{
			name: "traj-shape",
			plan: NewScan(src).Filter(ObjEq(3), TimeBetween(0, 60)),
			want: colstore.Predicate{HasObj: true, Obj: 3, HasTime: true, T0: 0, T1: 60},
		},
		{
			name: "windows-intersect",
			plan: NewScan(src).Filter(TimeBetween(0, 100)).Filter(TimeBetween(50, 200)),
			want: colstore.Predicate{HasTime: true, T0: 50, T1: 100},
		},
		{
			name:     "where-stays-residual",
			plan:     NewScan(src).Filter(TimeBetween(0, 30), Where(func(s trajectory.Sample) bool { return s.ObjID%2 == 0 })),
			want:     colstore.Predicate{HasTime: true, T0: 0, T1: 30},
			residual: true,
		},
		{
			name:     "second-box-stays-residual",
			plan:     NewScan(src).Filter(InBox(box), InBox(geom.BBox{Min: geom.Pt(1, 1), Max: geom.Pt(5, 5)})),
			want:     colstore.Predicate{HasBox: true, Box: box},
			residual: true,
		},
		{
			name: "filter-after-bucket-never-pushes",
			plan: NewScan(src).TimeBucket(60).Filter(TimeBetween(0, 30)),
			want: colstore.Predicate{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCompile(t, tc.plan)
			if got := c.ScanPred(); got != tc.want {
				t.Errorf("ScanPred = %+v, want %+v", got, tc.want)
			}
			_, isScan := c.root.(*scanOp)
			if tc.residual && isScan {
				t.Error("expected a residual filter above the scan, got a bare scan")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPushdownPrunesBlocks proves pushed predicates reach the zone maps: a
// narrow time filter over a time-ordered VTB file must skip most blocks yet
// return exactly the rows a residual filter would.
func TestPushdownPrunesBlocks(t *testing.T) {
	samples := planSamples()
	path := writeVTB(t, samples)

	c := mustCompile(t, NewScan(FileSource{Path: path}).Filter(TimeBetween(100, 120)))
	got, err := CollectSamples(c)
	if err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.BlocksPruned == 0 {
		t.Errorf("no blocks pruned: %+v", stats)
	}
	if stats.BlocksScanned >= stats.BlocksTotal {
		t.Errorf("pushdown scanned every block: %+v", stats)
	}

	var want []trajectory.Sample
	for _, s := range samples {
		if s.T >= 100 && s.T <= 120 {
			want = append(want, s)
		}
	}
	sameSamples(t, got, want)
}

// TestResidualMatchesPushdown runs the same conjunction once structured
// (pushed down) and once wrapped in opaque Where predicates (residual); the
// surviving rows must be identical.
func TestResidualMatchesPushdown(t *testing.T) {
	samples := planSamples()
	path := writeVTB(t, samples)
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 3)}

	pushed := collect(t, NewScan(FileSource{Path: path}).
		Filter(TimeBetween(50, 300), OnFloor(1), InBox(box)))
	residual := collect(t, NewScan(FileSource{Path: path}).
		Filter(
			Where(func(s trajectory.Sample) bool { return s.T >= 50 && s.T <= 300 }),
			Where(func(s trajectory.Sample) bool { return s.Loc.Floor == 1 }),
			Where(func(s trajectory.Sample) bool { return s.Loc.HasPoint && box.Contains(s.Loc.Point) }),
		))
	sameSamples(t, pushed, residual)
}

// TestTimeBucket checks T lands on bucket starts and nothing else changes.
func TestTimeBucket(t *testing.T) {
	samples := planSamples()[:100]
	got := collect(t, NewScan(SliceSource{Samples: samples}).TimeBucket(60))
	for i, s := range got {
		want := samples[i]
		want.T = math.Floor(want.T/60) * 60
		if s != want {
			t.Fatalf("row %d = %+v, want %+v", i, s, want)
		}
	}
}

func rows(t *testing.T, p *Plan) []Row {
	t.Helper()
	got, err := CollectRows(mustCompile(t, p))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAggregate cross-checks every aggregate function against a hand-rolled
// oracle, and requires groups in ascending key order.
func TestAggregate(t *testing.T) {
	samples := planSamples()
	src := SliceSource{Samples: samples}

	got := rows(t, NewScan(src).Aggregate(By(ColPartition, ColFloor),
		CountInto(ColVal)))
	type key struct {
		part  string
		floor int
	}
	counts := map[key]int{}
	for _, s := range samples {
		counts[key{s.Loc.Partition, s.Loc.Floor}]++
	}
	if len(got) != len(counts) {
		t.Fatalf("got %d groups, want %d", len(got), len(counts))
	}
	for i, r := range got {
		k := key{r.Sample.Loc.Partition, r.Sample.Loc.Floor}
		if int(r.Val) != counts[k] {
			t.Errorf("group %v count = %g, want %d", k, r.Val, counts[k])
		}
		if i > 0 {
			prev := got[i-1]
			if prev.Sample.Loc.Partition > r.Sample.Loc.Partition ||
				(prev.Sample.Loc.Partition == r.Sample.Loc.Partition && prev.Sample.Loc.Floor >= r.Sample.Loc.Floor) {
				t.Errorf("groups out of order at %d: %+v after %+v", i, r.Sample, prev.Sample)
			}
		}
	}

	// Sum of X, count and sum of T per object, dst spread across columns.
	agg := rows(t, NewScan(src).Aggregate(By(ColObjID),
		Sum(ColX, ColVal), CountInto(ColX), Sum(ColT, ColT)))
	sums := map[int]float64{}
	tsum := map[int]float64{}
	n := map[int]int{}
	for _, s := range samples {
		o := s.ObjID
		sums[o] += s.Loc.Point.X
		tsum[o] += s.T
		n[o]++
	}
	if len(agg) != len(n) {
		t.Fatalf("got %d groups, want %d", len(agg), len(n))
	}
	for i, r := range agg {
		o := r.Sample.ObjID
		if i != o {
			t.Errorf("group %d is object %d; want ascending object order", i, o)
		}
		if r.Val != sums[o] {
			t.Errorf("obj %d sum = %g, want %g", o, r.Val, sums[o])
		}
		if r.Sample.Loc.Point.X != float64(n[o]) {
			t.Errorf("obj %d count = %g, want %d", o, r.Sample.Loc.Point.X, n[o])
		}
		if r.Sample.T != tsum[o] {
			t.Errorf("obj %d sum t = %g, want %g", o, r.Sample.T, tsum[o])
		}
	}
}

// otherNaN is a NaN whose bits differ from math.NaN()'s in sign and payload.
var otherNaN = math.Float64frombits(0xfff8000000000002)

// keySamples is one row per (object, time) pair, everything else zero.
func keySamples(objs []int, ts []float64) []trajectory.Sample {
	out := make([]trajectory.Sample, len(objs))
	for i := range out {
		out[i] = trajectory.Sample{ObjID: objs[i], T: ts[i]}
	}
	return out
}

// TestAggregateKeySemantics pins Aggregate's group keys to OrderBy's: object
// IDs that differ above 2^53 are two groups (they used to be hashed as
// float64 bits and merged), -0 and +0 are one group, and every NaN is one
// group emitted after every number.
func TestAggregateKeySemantics(t *testing.T) {
	big := 1 << 53
	got := rows(t, NewScan(SliceSource{Samples: keySamples([]int{big + 1, big, big + 1}, []float64{0, 0, 0})}).
		Aggregate(By(ColObjID), CountInto(ColVal)))
	if len(got) != 2 || got[0].Sample.ObjID != big || got[0].Val != 1 || got[1].Sample.ObjID != big+1 || got[1].Val != 2 {
		t.Errorf("objects 2^53 and 2^53+1: got %+v, want 2^53 once then 2^53+1 twice", got)
	}

	nan1, nan2 := math.NaN(), otherNaN
	negZero := math.Copysign(0, -1)
	got = rows(t, NewScan(SliceSource{Samples: keySamples([]int{0, 1, 2, 3, 4, 5}, []float64{nan1, 0, math.Inf(1), negZero, nan2, -1})}).
		Aggregate(By(ColT), CountInto(ColVal)))
	want := []struct{ t, n float64 }{{-1, 1}, {0, 2}, {math.Inf(1), 1}, {math.NaN(), 2}}
	if len(got) != len(want) {
		t.Fatalf("by t over {NaN, 0, +Inf, -0, NaN, -1}: %d groups, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Val != w.n || !(g.Sample.T == w.t || math.IsNaN(w.t) && math.IsNaN(g.Sample.T)) {
			t.Errorf("group %d is t=%g count %g, want t=%g count %g", i, g.Sample.T, g.Val, w.t, w.n)
		}
	}
	if math.Signbit(got[1].Sample.T) {
		t.Errorf("the ±0 group carries -0; want its first row's +0")
	}
}

// TestAggregateValidation rejects string sources and destinations.
func TestAggregateValidation(t *testing.T) {
	src := SliceSource{}
	if _, err := NewScan(src).Aggregate(By(ColObjID), Sum(ColPartition, ColVal)).Compile(); err == nil {
		t.Error("sum over a string column compiled")
	}
	if _, err := NewScan(src).Aggregate(By(ColObjID), CountInto(ColPartition)).Compile(); err == nil {
		t.Error("count into a string column compiled")
	}
	if _, err := NewScan(src).Aggregate(nil, CountInto(ColVal)).Compile(); err == nil {
		t.Error("aggregate without group-by compiled")
	}
}

// TestOrderByLimit sorts by (floor desc, t asc) and truncates.
func TestOrderByLimit(t *testing.T) {
	samples := planSamples()[:60]
	got := collect(t, NewScan(SliceSource{Samples: samples}).
		OrderBy(Desc(ColFloor), Asc(ColT)).
		Limit(25))
	want := append([]trajectory.Sample(nil), samples...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Loc.Floor != want[j].Loc.Floor {
			return want[i].Loc.Floor > want[j].Loc.Floor
		}
		return want[i].T < want[j].T
	})
	sameSamples(t, got, want[:25])
}

// TestLimitZero yields nothing without erroring.
func TestLimitZero(t *testing.T) {
	got := collect(t, NewScan(SliceSource{Samples: planSamples()}).Limit(0))
	if len(got) != 0 {
		t.Fatalf("limit 0 yielded %d rows", len(got))
	}
}

// TestDwellGaps checks the dwell derivation on a handcrafted visit pattern:
// gaps within a partition accrue, partition changes and over-gap jumps
// don't.
func TestDwellGaps(t *testing.T) {
	mk := func(obj int, part string, ts ...float64) []trajectory.Sample {
		var out []trajectory.Sample
		for _, ts := range ts {
			out = append(out, trajectory.Sample{ObjID: obj, Loc: model.At("hq", 0, part, geom.Pt(0, 0)), T: ts})
		}
		return out
	}
	var samples []trajectory.Sample
	samples = append(samples, mk(1, "lobby", 0, 5, 10)...) // 5+5 in lobby
	samples = append(samples, mk(1, "lab", 12, 14)...)     // 2 in lab (12→14; 10→12 crosses partitions)
	samples = append(samples, mk(1, "lab", 40)...)         // 14→40 exceeds maxGap
	samples = append(samples, mk(2, "lobby", 41, 44)...)   // 3 in lobby; 40→41 crosses objects

	got := rows(t, NewScan(SliceSource{Samples: samples}).
		OrderBy(Asc(ColObjID), Asc(ColT)).
		Derive(DwellGaps(10)).
		Aggregate(By(ColPartition), Sum(ColVal, ColVal)))

	want := map[string]float64{"lab": 2, "lobby": 13}
	if len(got) != len(want) {
		t.Fatalf("got %d partitions, want %d", len(got), len(want))
	}
	for _, r := range got {
		if w := want[r.Sample.Loc.Partition]; r.Val != w {
			t.Errorf("dwell[%s] = %g, want %g", r.Sample.Loc.Partition, r.Val, w)
		}
	}
}

// TestSnapshotAt checks the snapshot fold on handcrafted series: one row per
// observed object in object order, positions between the bracketing rows,
// gaps and floor changes snapped rather than interpolated, row order
// irrelevant, and a Filter above it left out of the scan predicate.
func TestSnapshotAt(t *testing.T) {
	at := func(obj, floor int, part string, x, ts float64) trajectory.Sample {
		return trajectory.Sample{ObjID: obj, Loc: model.At("hq", floor, part, geom.Pt(x, 1)), T: ts}
	}
	samples := []trajectory.Sample{
		at(5, 0, "lobby", 0, 90), at(5, 0, "lab", 8, 98), at(5, 0, "hall", 12, 102), // 98 and 102 bracket 100
		at(1, 0, "lobby", 4, 100),                          // a row exactly at the instant
		at(2, 0, "lobby", 0, 60), at(2, 0, "lab", 30, 104), // gap too wide: snaps to the row within reach
		at(3, 0, "lobby", 0, 97), at(3, 1, "stairs", 9, 101), // floor change: nearer row verbatim
		at(4, 0, "lobby", 0, 80), at(4, 0, "lobby", 0, 120), // nothing within 10 s: unobserved
		at(6, 1, "lab", 2, 95), at(6, 1, "hall", 99, 95), // tie before the instant: the later row wins
		{ObjID: 7, Loc: model.Location{Building: "hq", Floor: 0, Partition: "lobby"}, T: 99}, // symbolic row passes through
	}
	want := []trajectory.Sample{
		at(1, 0, "lobby", 4, 100),
		at(2, 0, "lab", 30, 100),
		at(3, 1, "stairs", 9, 100),
		at(5, 0, "lab", 10, 100), // halfway; partition of the nearer row (a tie goes to the earlier)
		at(6, 1, "hall", 99, 100),
		{ObjID: 7, Loc: model.Location{Building: "hq", Floor: 0, Partition: "lobby"}, T: 100},
	}
	sameSamples(t, collect(t, NewScan(SliceSource{Samples: samples}).SnapshotAt(100, 10)), want)

	reversed := append([]trajectory.Sample(nil), samples...)
	slices.Reverse(reversed[:10]) // all but object 6's tie, whose order is part of the answer
	sameSamples(t, collect(t, NewScan(SliceSource{Samples: reversed, BatchSize: 3}).SnapshotAt(100, 10)), want)

	// Composed as kNN composes it: the floor filter sits above the snapshot,
	// so it must not reach the scan (object 3 is on floor 0 before the
	// instant and on floor 1 at it).
	c := mustCompile(t, NewScan(SliceSource{Samples: samples}).
		Filter(TimeBetween(90, 110)).
		SnapshotAt(100, 10).
		Filter(OnFloor(1)).
		Derive(DistTo(geom.Pt(9, 5))).
		OrderBy(Asc(ColVal), Asc(ColObjID)))
	if pred := c.ScanPred(); pred.HasFloor || !pred.HasTime {
		t.Errorf("scan predicate %+v: want the window pushed down and the floor not", pred)
	}
	got, err := CollectRows(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Sample.ObjID != 3 || got[0].Val != 4 || got[1].Sample.ObjID != 6 {
		t.Errorf("nearest on floor 1 = %+v, want object 3 at distance 4, then object 6", got)
	}

	if rows := collect(t, NewScan(SliceSource{}).SnapshotAt(100, 10)); len(rows) != 0 {
		t.Errorf("snapshot of nothing has %d rows", len(rows))
	}
}

// TestDistinctObjectsViaTwoLevelAggregate exercises the count-distinct
// idiom: group by (partition, object) first, then count the groups.
func TestDistinctObjectsViaTwoLevelAggregate(t *testing.T) {
	samples := planSamples()
	got := rows(t, NewScan(SliceSource{Samples: samples}).
		Aggregate(By(ColPartition, ColObjID)).
		Aggregate(By(ColPartition), CountInto(ColVal)))

	distinct := map[string]map[int]bool{}
	for _, s := range samples {
		if distinct[s.Loc.Partition] == nil {
			distinct[s.Loc.Partition] = map[int]bool{}
		}
		distinct[s.Loc.Partition][s.ObjID] = true
	}
	if len(got) != len(distinct) {
		t.Fatalf("got %d partitions, want %d", len(got), len(distinct))
	}
	for _, r := range got {
		if w := len(distinct[r.Sample.Loc.Partition]); int(r.Val) != w {
			t.Errorf("distinct[%s] = %g, want %d", r.Sample.Loc.Partition, r.Val, w)
		}
	}
}

// TestOperatorsDoNotMutateInput feeds a shared (cache-like) batch source
// through mutating-shaped operators and checks the source rows afterward.
func TestOperatorsDoNotMutateInput(t *testing.T) {
	samples := planSamples()[:200]
	src := SliceSource{Samples: samples}
	before := append([]trajectory.Sample(nil), samples...)

	plans := []*Plan{
		NewScan(src).TimeBucket(60).Filter(Where(func(s trajectory.Sample) bool { return s.ObjID == 1 })),
		NewScan(src).OrderBy(Desc(ColT)).Limit(3),
		NewScan(src).Derive(DwellGaps(10)).Aggregate(By(ColObjID), Sum(ColVal, ColVal)),
		NewScan(src).SnapshotAt(20, 10).Derive(DistTo(geom.Pt(1, 1))),
	}
	for _, p := range plans {
		if _, err := CollectRows(mustCompile(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	sameSamples(t, samples, before)
}

// TestCompileErrors covers the planner's validation paths.
func TestCompileErrors(t *testing.T) {
	src := SliceSource{}
	bad := []*Plan{
		NewScan(src).TimeBucket(0),
		NewScan(src).OrderBy(),
		NewScan(src).Limit(-1),
	}
	for i, p := range bad {
		if _, err := p.Compile(); err == nil {
			t.Errorf("bad plan %d compiled", i)
		}
	}
}
