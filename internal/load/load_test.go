package load

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/obs"
	"vita/internal/serve"
	"vita/internal/trajectory"
)

// testDataset writes a small VTB dataset and opens it for serving.
func testDataset(t *testing.T) *serve.Dataset {
	t.Helper()
	var samples []trajectory.Sample
	parts := []string{"lobby", "office-a", "office-b"}
	for ts := 0; ts < 300; ts++ {
		for o := 0; o < 6; o++ {
			samples = append(samples, trajectory.Sample{
				ObjID: o,
				Loc: model.At("office", o%2, parts[(o+ts/50)%len(parts)],
					geom.Pt(float64((ts*7+o*13)%40), float64((ts*3+o*5)%20))),
				T: float64(ts),
			})
		}
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	w := colstore.NewTrajectoryWriter(&buf, colstore.Options{BlockSize: 512})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trajectory.vtb"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("range=40, knn=25,traj=20")
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights["range"] != 40 || m.Weights["knn"] != 25 || m.Weights["traj"] != 20 {
		t.Errorf("weights %v", m.Weights)
	}
	if got := m.String(); got != "range=40,knn=25,traj=20" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"bogus=1", "range", "range=-2", "range=0", ""} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestGeneratorDeterministicAndInBounds checks the replay contract: the
// same seed draws the identical query sequence, and every drawn parameter
// lands inside the dataset's spatial/temporal envelope.
func TestGeneratorDeterministicAndInBounds(t *testing.T) {
	ds := testDataset(t)
	info, err := ds.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bounds.Min.X >= info.Bounds.Max.X {
		t.Fatalf("info bounds degenerate: %v", info.Bounds)
	}
	g, err := newGenerator(DefaultMix(), info)
	if err != nil {
		t.Fatal(err)
	}

	draw := func() []string {
		rng := rand.New(rand.NewSource(7))
		var ops []string
		for i := 0; i < 200; i++ {
			op, call := g.next(rng)
			ops = append(ops, op)
			if err := call(ds); err != nil {
				t.Fatalf("generated %s query failed: %v", op, err)
			}
		}
		return ops
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across replays: %s vs %s", i, a[i], b[i])
		}
	}
	seen := map[string]bool{}
	for _, op := range a {
		seen[op] = true
	}
	for _, op := range []string{"range", "knn", "traj"} {
		if !seen[op] {
			t.Errorf("200 draws from the default mix never issued %s", op)
		}
	}

	// Spot-check parameter envelopes directly.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		q := g.rangeReq(rng)
		if q.Box.Min.X < info.Bounds.Min.X || q.Box.Max.X > info.Bounds.Max.X ||
			q.Box.Min.Y < info.Bounds.Min.Y || q.Box.Max.Y > info.Bounds.Max.Y {
			t.Fatalf("range box %v escapes bounds %v", q.Box, info.Bounds)
		}
		if q.T0 < info.T0 || q.T1 > info.T1 || q.T0 > q.T1 {
			t.Fatalf("range window [%g,%g] escapes span [%g,%g]", q.T0, q.T1, info.T0, info.T1)
		}
		k := g.knnReq(rng)
		if k.K < 1 || k.T < info.T0 || k.T > info.T1 {
			t.Fatalf("bad knn draw %+v", k)
		}
		tr := g.trajReq(rng)
		if tr.Obj < 0 || tr.Obj >= info.Objects {
			t.Fatalf("traj object %d outside [0,%d)", tr.Obj, info.Objects)
		}
	}
}

// TestRunClosedLoopLocal drives the closed loop against an in-process
// dataset and checks the report's internal accounting.
func TestRunClosedLoopLocal(t *testing.T) {
	ds := testDataset(t)
	reg := obs.NewRegistry()
	var progressed bool
	rep, err := Run(context.Background(), ds, Options{
		Mode:          ModeClosed,
		Concurrency:   4,
		Duration:      300 * time.Millisecond,
		Seed:          42,
		Registry:      reg,
		Progress:      func(Progress) { progressed = true },
		ProgressEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeClosed || rep.Concurrency != 4 {
		t.Errorf("report shape: %+v", rep)
	}
	if rep.Requests == 0 {
		t.Fatal("closed loop issued no requests")
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors against a local dataset", rep.Errors)
	}
	if !progressed {
		t.Error("progress callback never fired")
	}
	var sum int64
	for op, e := range rep.Endpoints {
		sum += e.Requests
		if e.Latency.Count != e.Requests {
			t.Errorf("%s: latency count %d != requests %d", op, e.Latency.Count, e.Requests)
		}
		if e.Latency.P50 > e.Latency.P99 || e.Latency.P99 > e.Latency.Max {
			t.Errorf("%s: quantiles not monotone: %+v", op, e.Latency)
		}
	}
	if sum != rep.Requests {
		t.Errorf("endpoint requests sum %d != total %d", sum, rep.Requests)
	}
	if rep.Overall.Count != rep.Requests {
		t.Errorf("overall count %d != requests %d", rep.Overall.Count, rep.Requests)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput %g", rep.Throughput)
	}

	// The generator's own series must account for the same run.
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vita_load_requests_total") {
		t.Error("vita_load_requests_total missing from the registry")
	}

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "closed loop:") || !strings.Contains(text.String(), "overall") {
		t.Errorf("text summary:\n%s", text.String())
	}
}

// TestRunOpenLoopRemote drives the open loop against a live HTTP server
// through serve.Client, with a /metricsz scrape delta — the acceptance path
// of the harness.
func TestRunOpenLoopRemote(t *testing.T) {
	ds := testDataset(t)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := serve.NewServerWith(ds, serve.ServerOptions{Logger: quiet, Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c := serve.NewClient(ts.URL, serve.ClientOptions{Timeout: 10 * time.Second, MaxIdleConnsPerHost: 32})
	rep, err := Run(context.Background(), c, Options{
		Mode:        ModeOpen,
		Rate:        300,
		Concurrency: 8,
		Duration:    500 * time.Millisecond,
		Seed:        1,
		MetricsURL:  ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop issued no requests")
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors against a healthy server", rep.Errors)
	}
	if rep.Rate != 300 {
		t.Errorf("report rate %g", rep.Rate)
	}
	// The schedule is fixed: a healthy fast server must take nearly all of
	// rate × duration requests (allow slack for startup and rounding).
	want := int64(300 * 0.5)
	if rep.Requests+rep.Dropped < want/2 {
		t.Errorf("only %d requests (+%d dropped) of ~%d scheduled", rep.Requests, rep.Dropped, want)
	}
	if len(rep.ServerDelta) == 0 {
		t.Fatal("no server metrics delta")
	}
	found := false
	for series := range rep.ServerDelta {
		if strings.HasPrefix(series, "vita_http_requests_total") {
			found = true
		}
	}
	if !found {
		t.Errorf("delta lacks vita_http_requests_total series: %v", rep.ServerDelta)
	}

	// SLO gate wiring: generous budgets pass, absurd ones fail.
	if v := rep.CheckSLO(time.Minute, 0); len(v) != 0 {
		t.Errorf("generous SLO violated: %v", v)
	}
	if v := rep.CheckSLO(time.Nanosecond, -1); len(v) == 0 {
		t.Error("1ns SLO not violated")
	}
}

// TestOpenLoopMeasuresFromSchedule pins the coordinated-omission defense: a
// server that stalls every request must report latencies near the stall
// even for requests that spent their time queued, and the recorded p50 must
// exceed the pure service time of the later (queued) requests.
func TestOpenLoopMeasuresFromSchedule(t *testing.T) {
	ds := testDataset(t)
	slow := &stallQuerier{Querier: ds, delay: 30 * time.Millisecond}
	rep, err := Run(context.Background(), slow, Options{
		Mode:        ModeOpen,
		Rate:        200,
		Concurrency: 1, // single worker: the queue must back up
		Duration:    400 * time.Millisecond,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 5 {
		t.Fatalf("only %d requests completed", rep.Requests)
	}
	// 200 req/s offered into a 30ms-per-request single server: the queue
	// grows, so scheduled-time latency keeps climbing well past the 30ms
	// service time. Max latency must show the backlog, not the stall.
	if rep.Overall.Max < 0.06 {
		t.Errorf("max latency %.3fs does not reflect queueing from the schedule (service time 0.03s)",
			rep.Overall.Max)
	}
}

// stallQuerier delays every operator call by a fixed amount.
type stallQuerier struct {
	serve.Querier
	delay time.Duration
}

func (s *stallQuerier) Range(q serve.RangeRequest) (*serve.RangeResponse, error) {
	time.Sleep(s.delay)
	return s.Querier.Range(q)
}
func (s *stallQuerier) KNN(q serve.KNNRequest) (*serve.KNNResponse, error) {
	time.Sleep(s.delay)
	return s.Querier.KNN(q)
}
func (s *stallQuerier) Density(q serve.DensityRequest) (*serve.DensityResponse, error) {
	time.Sleep(s.delay)
	return s.Querier.Density(q)
}
func (s *stallQuerier) Traj(q serve.TrajRequest) (*serve.TrajResponse, error) {
	time.Sleep(s.delay)
	return s.Querier.Traj(q)
}
func (s *stallQuerier) Dwell(q serve.DwellRequest) (*serve.DwellResponse, error) {
	time.Sleep(s.delay)
	return s.Querier.Dwell(q)
}

// TestRunEmptyDatasetFails checks Run refuses an empty dataset instead of
// replaying nonsense.
func TestRunEmptyDatasetFails(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	w := colstore.NewTrajectoryWriter(&buf, colstore.Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trajectory.vtb"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if _, err := Run(context.Background(), ds, Options{Duration: 50 * time.Millisecond}); err == nil {
		t.Fatal("Run accepted an empty dataset")
	}
}

func TestDeltaCounters(t *testing.T) {
	before := map[string]float64{
		`a_total`:            10,
		`b_count{op="x"}`:    1,
		`some_gauge`:         5,
		`steady_total`:       7,
		`lat_bucket{le="1"}`: 2,
	}
	after := map[string]float64{
		`a_total`:            15,
		`b_count{op="x"}`:    4,
		`some_gauge`:         9, // gauges never appear in the delta
		`steady_total`:       7, // unchanged counters are dropped
		`lat_bucket{le="1"}`: 3,
		`new_total`:          2, // registered mid-run: counts from zero
	}
	got := DeltaCounters(before, after)
	want := map[string]float64{
		`a_total`:            5,
		`b_count{op="x"}`:    3,
		`lat_bucket{le="1"}`: 1,
		`new_total`:          2,
	}
	if len(got) != len(want) {
		t.Fatalf("delta %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("delta[%s] = %g, want %g", k, got[k], v)
		}
	}
}
