package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"vita/internal/geom"
	"vita/internal/obs"
)

func TestMain(m *testing.M) {
	discardLogs()
	os.Exit(m.Run())
}

var testShape = shape{
	t0: 0, t1: 600,
	bounds:  geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)},
	floors:  []int{0, 1},
	objects: 40,
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads[1:] {
		a := generateRequests(w, testShape, 7, 200)
		b := generateRequests(w, testShape, 7, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two lists", w.name)
		}
		if c := generateRequests(w, testShape, 8, 200); reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave one list", w.name)
		}
	}
}

func TestRequestListFollowsMixAndWindow(t *testing.T) {
	w, _ := findWorkload("http_hot")
	var counts [numOps]int
	for _, r := range generateRequests(w, testShape, 3, 1000) {
		counts[r.op]++
		var t0, t1 float64
		switch r.op {
		case opRange:
			t0, t1 = r.rangeQ.T0, r.rangeQ.T1
		case opKNN:
			t0, t1 = r.knnQ.T, r.knnQ.T
		case opDensity:
			t0, t1 = r.density.T, r.density.T
		case opTraj:
			t0, t1 = r.traj.T0, r.traj.T1
		}
		if t0 < 240 || t1 > 330 || t0 > t1 {
			t.Fatalf("%s window [%g, %g] leaves the hot window [240, 330]", opNames[r.op], t0, t1)
		}
	}
	if want := [numOps]int{400, 250, 100, 250, 0}; counts != want {
		t.Errorf("operator counts %v, want %v", counts, want)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	rec := newRecorder()
	tree := &obs.Span{Op: "Dwell", WallNanos: 1000, Children: []*obs.Span{
		{Op: "Aggregate", WallNanos: 900, Children: []*obs.Span{
			{Op: "Derive", WallNanos: 700, Children: []*obs.Span{
				{Op: "OrderBy", WallNanos: 650, Children: []*obs.Span{
					{Op: "Scan", WallNanos: 200},
				}},
			}},
		}},
		{Op: "Mystery", WallNanos: 40},
	}}
	for req := range 3 {
		id := rec.begin(spanExec, -1, req)
		rec.end(id)
		rec.graft(tree, id, req)
	}
	self := selfTimes(rec.spans)
	var sum, roots int64
	for i, s := range rec.spans {
		sum += self[i]
		if s.Parent < 0 {
			roots += s.EndNs - s.StartNs
		}
	}
	if sum != roots {
		t.Errorf("self times sum to %d ns, root spans to %d ns", sum, roots)
	}
	fold := foldSelf(rec.spans)
	want := map[string]int64{
		"plan.scan_ms":       3 * 200,
		"plan.orderby_ms":    3 * 450,
		"plan.derive_ms":     3 * 50,
		"plan.aggregate_ms":  3 * 200,
		"plan.other_ms":      3 * 40, // an operator nobody mapped is kept, not dropped
		"serve.exec_self_ms": 3 * 60,
	}
	if !reflect.DeepEqual(fold, want) {
		t.Errorf("fold = %v, want %v", fold, want)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median of two = %g, want 2.5", got)
	}
}

// TestQuickRunsEveryWorkload drives all four workloads, both modes, on the
// quick profile: a change to the API surface the bench stands on breaks
// here, in tier-1, rather than in the next performance run.
func TestQuickRunsEveryWorkload(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runOne(runConfig{workload: w, seed: 1, trace: trace, quick: true, dir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, r.Attempted, r.Failed, r.Failures)
			}
			if _, err := contractLine(r); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if !trace {
				for _, d := range endToEnd {
					if r.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.name, r.Metrics[d.name])
					}
				}
			}
		}
	}
	if entries, _ := os.ReadDir(dir + "/data"); len(entries) != 0 {
		t.Errorf("%d generated datasets left behind", len(entries))
	}
	t.Logf("quick pass over %d workloads took %s", len(workloads), time.Since(start).Round(time.Millisecond))
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(g.Digests[w.name]) == 0 {
			t.Errorf("golden.json has no digests for %s", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file at the
// repository root and the tables in workloads.go from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the bench has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the bench has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the bench has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound disagrees with the bench's %g", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
