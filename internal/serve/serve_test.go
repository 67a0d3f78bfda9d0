package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/obs"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// testSamples builds a deterministic dataset: objects wander across two
// floors and several partitions over 600 seconds, one sample per second, in
// global time order like generator output.
func testSamples() []trajectory.Sample {
	var out []trajectory.Sample
	parts := []string{"lobby", "office-a", "office-b", "corridor"}
	for t := 0; t < 600; t++ {
		for o := 0; o < 8; o++ {
			x := float64((t*7+o*13)%40) + float64(o)/8
			y := float64((t*3+o*5)%20) + float64(t%2)/4
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc: model.At("office", (o+t/300)%2, parts[(o+t/60)%len(parts)],
					geom.Pt(x, y)),
				T: float64(t),
			})
		}
	}
	return out
}

// writeDataset persists samples into dir as trajectory.vtb or trajectory.csv.
func writeDataset(t testing.TB, dir string, format storage.Format, samples []trajectory.Sample) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if format == storage.FormatVTB {
		w := colstore.NewTrajectoryWriter(&buf, colstore.Options{BlockSize: 512})
		for _, s := range samples {
			if err := w.Write(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		cw, err := storage.NewTrajectoryCSVWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, cw, samples)
	}
	name := "trajectory" + format.Ext()
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readTrajectoryFile returns every row of the trajectory file at path, in
// either format, read through storage.OpenCursor.
func readTrajectoryFile(t testing.TB, path string) []trajectory.Sample {
	t.Helper()
	cur, _, err := storage.OpenCursor(storage.Trajectory, path, colstore.Predicate{}, colstore.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []trajectory.Sample
	for cur.Next() {
		out = cur.Batch().AppendTo(out)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func openTestDataset(t *testing.T, format storage.Format, cfg Config) *Dataset {
	t.Helper()
	dir := t.TempDir()
	writeDataset(t, dir, format, testSamples())
	ds, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestDatasetSamplesMatchesScan: the scan leaf under every operator's plan,
// drained with each predicate shape pushed down, returns exactly the rows a
// row filter of the samples keeps, on VTB and CSV datasets alike.
func TestDatasetSamplesMatchesScan(t *testing.T) {
	samples := testSamples()
	for _, format := range []storage.Format{storage.FormatVTB, storage.FormatCSV} {
		ds := openTestDataset(t, format, Config{})
		preds := []colstore.Predicate{
			{},
			{HasTime: true, T0: 100, T1: 160},
			{HasObj: true, Obj: 3, HasTime: true, T0: 50, T1: 400},
			{HasFloor: true, Floor: 1, HasBox: true,
				Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(20, 10)}},
		}
		for pi, pred := range preds {
			var want []trajectory.Sample
			for _, s := range samples {
				if pred.MatchTrajectory(s) {
					want = append(want, s)
				}
			}
			// Run twice: the second pass must serve VTB blocks from cache and
			// still produce identical rows.
			for pass := 0; pass < 2; pass++ {
				got, stats, _ := loadViaPlan(t, ds, planPreds(pred))
				if len(got) != len(want) {
					t.Fatalf("%s pred %d pass %d: %d rows, want %d", format, pi, pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] && format == storage.FormatVTB {
						t.Fatalf("%s pred %d pass %d: row %d differs", format, pi, pass, i)
					}
				}
				if format == storage.FormatVTB && pass == 1 && stats.CacheMisses != 0 {
					t.Errorf("pred %d second pass missed cache %d times", pi, stats.CacheMisses)
				}
			}
		}
	}
}

// TestCSVLenWithoutBlockCache: a CSV dataset's Len and Blocks come from the
// footer of the in-memory image its rows were re-encoded into at open,
// whatever the block-cache budget. Len used to report 0 for a CSV opened
// with caching disabled.
func TestCSVLenWithoutBlockCache(t *testing.T) {
	want := len(testSamples())
	for _, budget := range []int64{0, -1} {
		ds := openTestDataset(t, storage.FormatCSV, Config{CacheBytes: budget})
		if got := ds.Len(); got != want {
			t.Errorf("cache %d: Len = %d, want %d", budget, got, want)
		}
		if got := ds.Blocks(); got < 2 {
			t.Errorf("cache %d: Blocks = %d, want the rows cut into several", budget, got)
		}
	}
}

// TestServerParity is the core serving guarantee: for every operator, the
// response obtained over HTTP renders byte-identically to the one computed
// locally — on both storage formats.
func TestServerParity(t *testing.T) {
	for _, format := range []storage.Format{storage.FormatVTB, storage.FormatCSV} {
		ds := openTestDataset(t, format, Config{})
		ts := httptest.NewServer(NewServer(ds).Handler())
		t.Cleanup(ts.Close)
		c := &Client{Base: ts.URL}

		box := geom.BBox{Min: geom.Pt(1.5, 0.25), Max: geom.Pt(17.75, 9.5)}
		{
			q := RangeRequest{Floor: 0, Box: box, T0: 33.5, T1: 147.25}
			local, err := ds.Range(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Range(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Hits) == 0 {
				t.Fatalf("%s: range query matched nothing", format)
			}
			compareText(t, string(format)+"/range", local, remote)
		}
		{
			q := KNNRequest{Floor: 1, At: geom.Pt(10.125, 7.625), T: 420.5, K: 4}
			local, err := ds.KNN(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.KNN(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Neighbors) == 0 {
				t.Fatalf("%s: knn query matched nothing", format)
			}
			compareText(t, string(format)+"/knn", local, remote)
		}
		{
			q := DensityRequest{T: 250}
			local, err := ds.Density(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Density(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Counts) == 0 {
				t.Fatalf("%s: density query matched nothing", format)
			}
			compareText(t, string(format)+"/density", local, remote)
		}
		{
			q := TrajRequest{Obj: 5, T0: 100, T1: 500}
			local, err := ds.Traj(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Traj(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Samples) == 0 {
				t.Fatalf("%s: traj query matched nothing", format)
			}
			compareText(t, string(format)+"/traj", local, remote)
		}
		{
			q := DwellRequest{Floor: -1, T0: 50, T1: 450}
			local, err := ds.Dwell(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Dwell(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Rooms) == 0 {
				t.Fatalf("%s: dwell query matched nothing", format)
			}
			compareText(t, string(format)+"/dwell", local, remote)
		}
		{
			local, err := ds.Info(false)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Info(false)
			if err != nil {
				t.Fatal(err)
			}
			compareText(t, string(format)+"/info", local, remote)
		}
		{
			q := WatchRequest{Floor: 0, Box: box}
			local, err := ds.Watch(q)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := c.Watch(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Events) == 0 {
				t.Fatalf("%s: watch query saw no crossing", format)
			}
			compareText(t, string(format)+"/watch", local, remote)
		}
	}
}

func compareText(t *testing.T, name string, local, remote interface {
	WriteText(w io.Writer) error
}) {
	t.Helper()
	var lb, rb bytes.Buffer
	if err := local.WriteText(&lb); err != nil {
		t.Fatalf("%s local render: %v", name, err)
	}
	if err := remote.WriteText(&rb); err != nil {
		t.Fatalf("%s remote render: %v", name, err)
	}
	if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
		t.Errorf("%s output differs:\nlocal:\n%s\nremote:\n%s", name, lb.String(), rb.String())
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	srv := NewServerWith(ds, ServerOptions{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	if _, err := c.Health(); err != nil {
		t.Fatal("healthz failed")
	}
	q := RangeRequest{Floor: -1, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)}, T0: 0, T1: 100}
	first, err := c.Range(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheMisses == 0 || first.Stats.Scan.BlocksScanned == 0 {
		t.Errorf("first request shows no block work: %+v", first.Stats)
	}
	if first.Stats.Scan.BlocksPruned == 0 {
		t.Errorf("windowed request pruned nothing: %+v", first.Stats)
	}
	second, err := c.Range(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheMisses != 0 || second.Stats.CacheHits != first.Stats.CacheMisses {
		t.Errorf("repeat request did not run off the block cache: %+v", second.Stats)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m[`vita_http_requests_total{endpoint="/v1/range",status="200"}`]; got != 2 {
		t.Errorf("metricsz range count = %g, want 2", got)
	}
	if ds.Format() != storage.FormatVTB || ds.Len() != len(testSamples()) || ds.Blocks() == 0 {
		t.Errorf("dataset identity wrong: format %s, %d samples in %d blocks", ds.Format(), ds.Len(), ds.Blocks())
	}
	if m[`vita_block_cache_misses_total`] == 0 {
		t.Errorf("metricsz cache misses empty")
	}
}

func TestServerBadRequests(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServer(ds).Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct{ path, names string }{
		{"/v1/range?box=1,2,3", "bad box"},       // malformed box
		{"/v1/range?box=a,b,c,d", "bad box"},     // non-numeric box
		{"/v1/knn?at=5", "bad point"},            // malformed point
		{"/v1/knn?at=1,2&k=x", "bad k"},          // non-numeric k
		{"/v1/density?t=zzz", "bad t "},          // non-numeric instant
		{"/v1/traj?obj=nope", "bad obj"},         // non-numeric object
		{"/v1/range?box=0,0,1,1&t0=x", "bad t0"}, // non-numeric window
		// strconv.ParseFloat accepts these; the JSON query echo cannot carry
		// them, and each used to get a 200 with an empty body.
		{"/v1/traj?obj=5&t0=NaN&t1=500", "bad t0"},
		{"/v1/traj?obj=5&t0=0&t1=Inf", "bad t1"},
		{"/v1/density?t=NaN", "bad t "},
		{"/v1/knn?at=1,2&t=inf&k=3", "bad t "},
		{"/v1/knn?at=1,-Inf&t=3", "bad point"},
		{"/v1/range?box=0,0,nan,1&t0=0&t1=9", "bad box"},
		{"/v1/dwell?t0=-Infinity", "bad t0"},
	} {
		res, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, tc.names) {
			t.Errorf("%s: status %d, error %q; want 400 and %q", tc.path, res.StatusCode, e.Error, tc.names)
		}

		// vitaquery's path: the same parameters as flags of the operator's
		// subcommand must fail with the server's message.
		u, err := url.Parse(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		op := OperatorNamed(strings.TrimPrefix(u.Path, "/v1/"))
		fs := flag.NewFlagSet(op.Name, flag.ContinueOnError)
		params := op.Flags(fs)
		var args []string
		for name, vals := range u.Query() {
			args = append(args, "-"+name+"="+vals[0])
		}
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if _, err := op.Run(ds, params, false); err == nil || err.Error() != e.Error {
			t.Errorf("%s as vitaquery %s %v: error %v, want %q", tc.path, op.Name, args, err, e.Error)
		}
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses must become a 500
// error envelope carrying the request ID, not a 200 with a truncated body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	ds := openTestDataset(t, storage.FormatCSV, Config{})
	srv := NewServerWith(ds, ServerOptions{Metrics: obs.NewRegistry(), Logger: quietLogger()})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/density", nil)
	req = req.WithContext(context.WithValue(req.Context(), reqCtxKey{}, &reqInfo{id: "enc-1"}))
	srv.writeJSON(rec, req, DensityResponse{Query: DensityRequest{T: math.NaN()}})
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || e.Error == "" || e.RequestID != "enc-1" {
		t.Errorf("status %d, body %+v; want 500 with a message and request ID enc-1", rec.Code, e)
	}
}

// TestClientReusesConnection: the client must read every body to EOF before
// closing it, or net/http discards the connection and the next request pays a
// TCP handshake. It used to stop at the end of the JSON value, leaving the
// chunked terminator unread: one connection per large answer.
func TestClientReusesConnection(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewUnstartedServer(NewServerWith(ds, ServerOptions{Metrics: obs.NewRegistry(), Logger: quietLogger()}).Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	everywhere := geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(50, 50)}
	want := len(testSamples())
	for i := 0; i < 200; i++ {
		r, err := c.Range(RangeRequest{Floor: -1, Box: everywhere, T0: 0, T1: 600})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Hits) != want {
			t.Fatalf("range returned %d hits, want every sample (%d)", len(r.Hits), want)
		}
		if _, err := c.Traj(TrajRequest{Obj: i % 8, T0: 0, T1: 600}); err != nil {
			t.Fatal(err)
		}
		// The non-200 branch must drain its body too.
		if _, err := c.Traj(TrajRequest{Obj: 1, T0: math.NaN()}); err == nil {
			t.Fatal("a NaN window was accepted")
		}
	}
	if n := conns.Load(); n > 2 {
		t.Errorf("600 sequential requests opened %d connections, want at most 2", n)
	}
}

// parityCase is one query of TestServerParityBothEncodings, askable three
// ways.
type parityCase struct {
	name    string
	rows    int    // how many rows the answer must hold; -1: at least one
	vtbOnly bool   // needs rows CSV cannot store
	path    string // the query as a URL, for the plain GET
	local   func(*Dataset) (any, error)
	remote  func(*Client) (any, error)
	blank   func() any
}

func rangeCase(name string, rows int, q RangeRequest) parityCase {
	path := fmt.Sprintf("/v1/range?floor=%d&box=%s&t0=%s&t1=%s", q.Floor, FormatBox(q.Box), formatFloats(q.T0), formatFloats(q.T1))
	if q.Trace {
		path += "&trace=1"
	}
	return parityCase{name: name, rows: rows, path: path,
		local:  func(d *Dataset) (any, error) { return d.Range(q) },
		remote: func(c *Client) (any, error) { return c.Range(q) },
		blank:  func() any { return new(RangeResponse) },
	}
}

func trajCase(name string, rows int, q TrajRequest) parityCase {
	path := fmt.Sprintf("/v1/traj?obj=%d&t0=%s&t1=%s", q.Obj, formatFloats(q.T0), formatFloats(q.T1))
	if q.Trace {
		path += "&trace=1"
	}
	return parityCase{name: name, rows: rows, path: path,
		local:  func(d *Dataset) (any, error) { return d.Traj(q) },
		remote: func(c *Client) (any, error) { return c.Traj(q) },
		blank:  func() any { return new(TrajResponse) },
	}
}

// zeroWall clears a span tree's wall times.
func zeroWall(s *obs.Span) {
	if s != nil {
		s.WallNanos = 0
		for _, c := range s.Children {
			zeroWall(c)
		}
	}
}

// comparableAnswer strips from a row answer what legitimately differs
// between two executions of one query — the trace's wall times, and the Trace
// ask, which is not part of the wire's query echo — and returns its rows.
func comparableAnswer(t *testing.T, resp any) []trajectory.Sample {
	t.Helper()
	switch r := resp.(type) {
	case *RangeResponse:
		r.Query.Trace = false
		zeroWall(r.Trace)
		return r.Hits
	case *TrajResponse:
		r.Query.Trace = false
		zeroWall(r.Trace)
		return r.Samples
	}
	t.Fatalf("%T is not a row answer", resp)
	return nil
}

// contentTypes records the Content-Type of every response a Client receives.
type contentTypes struct{ seen []string }

func (c *contentTypes) RoundTrip(r *http.Request) (*http.Response, error) {
	res, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		c.seen = append(c.seen, res.Header.Get("Content-Type"))
	}
	return res, err
}

// TestServerParityBothEncodings fetches each query three ways — the Dataset
// method, the Client (row body), and a plain GET with no Accept header (JSON)
// — and requires the three response structs to be deeply equal: every field
// of every row, the query echo, Objects, Stats, the trace, and nil versus
// empty slices survive both encodings.
func TestServerParityBothEncodings(t *testing.T) {
	base := testSamples()
	if len(base) <= 4096 {
		t.Fatal("the test dataset no longer fills two wire blocks")
	}
	// Object 8's rows are symbolic: a partition and no point. Only VTB can
	// store them (the CSV schema has no such column).
	var withSymbolic []trajectory.Sample
	for i, s := range base {
		withSymbolic = append(withSymbolic, s)
		if i%8 == 7 {
			withSymbolic = append(withSymbolic, trajectory.Sample{
				ObjID: 8, T: s.T,
				Loc: model.Location{Building: "annex", Floor: 1, Partition: "stairs"},
			})
		}
	}
	everywhere := geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(50, 50)}
	symbolic := trajCase("traj/symbolic", 600, TrajRequest{Obj: 8, T0: 0, T1: 600})
	symbolic.vtbOnly = true
	cases := []parityCase{
		rangeCase("range", -1, RangeRequest{Floor: 0, Box: geom.BBox{Min: geom.Pt(1.5, 0.25), Max: geom.Pt(17.75, 9.5)}, T0: 33.5, T1: 147.25}),
		rangeCase("range/empty", 0, RangeRequest{Floor: 0, Box: everywhere, T0: 1000, T1: 2000}),
		rangeCase("range/traced", -1, RangeRequest{Floor: 1, Box: everywhere, T0: 10, T1: 20, Trace: true}),
		rangeCase("range/two blocks", len(base), RangeRequest{Floor: -1, Box: everywhere, T0: 0, T1: 600}),
		trajCase("traj", 401, TrajRequest{Obj: 5, T0: 100, T1: 500}),
		trajCase("traj/empty", 0, TrajRequest{Obj: 99, T0: 0, T1: 600}),
		trajCase("traj/traced", 51, TrajRequest{Obj: 2, T0: 0, T1: 50, Trace: true}),
		symbolic,
	}

	for _, format := range []storage.Format{storage.FormatVTB, storage.FormatCSV} {
		samples := base
		if format == storage.FormatVTB {
			samples = withSymbolic
		}
		dir := t.TempDir()
		writeDataset(t, dir, format, samples)
		ds, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		srv := NewServerWith(ds, ServerOptions{Metrics: obs.NewRegistry(), Logger: quietLogger()})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		types := &contentTypes{}
		c := &Client{Base: ts.URL, HTTP: &http.Client{Transport: types}}

		for _, pc := range cases {
			if pc.vtbOnly && format != storage.FormatVTB {
				continue
			}
			name := string(format) + "/" + pc.name
			// The first execution warms the block cache, so that the three
			// that follow report the same Stats.
			if _, err := pc.local(ds); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			local, err := pc.local(ds)
			if err != nil {
				t.Fatalf("%s: dataset: %v", name, err)
			}
			remote, err := pc.remote(c)
			if err != nil {
				t.Fatalf("%s: client: %v", name, err)
			}
			if got := types.seen[len(types.seen)-1]; got != vtbMediaType {
				t.Errorf("%s: the client was answered with %q, want %q", name, got, vtbMediaType)
			}
			res, err := http.Get(ts.URL + pc.path)
			if err != nil {
				t.Fatal(err)
			}
			plain := pc.blank()
			err = json.NewDecoder(res.Body).Decode(plain)
			res.Body.Close()
			if err != nil {
				t.Fatalf("%s: plain GET: %v", name, err)
			}
			if got := res.Header.Get("Content-Type"); got != "application/json" {
				t.Errorf("%s: a GET without Accept was answered with %q", name, got)
			}

			rows := comparableAnswer(t, local)
			comparableAnswer(t, remote)
			comparableAnswer(t, plain)
			if n := len(rows); n != pc.rows && !(pc.rows < 0 && n > 0) {
				t.Errorf("%s: %d rows, want %d", name, n, pc.rows)
			}
			if (rows == nil) != (len(rows) == 0) {
				t.Errorf("%s: the dataset answered %d rows with a nil=%v slice", name, len(rows), rows == nil)
			}
			if !reflect.DeepEqual(local, remote) {
				t.Errorf("%s: the row body changed the answer", name)
			}
			if !reflect.DeepEqual(local, plain) {
				t.Errorf("%s: the JSON body changed the answer", name)
			}
		}
	}
}

// TestServerGracefulShutdown drives Shutdown while a slow request is in
// flight: the request must complete successfully and Serve must return nil.
func TestServerGracefulShutdown(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	srv := NewServer(ds)
	srv.testDelay = 300 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c := &Client{Base: "http://" + l.Addr().String()}
	waitHealthy(t, c)

	var wg sync.WaitGroup
	var reqErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, reqErr = c.Info(false)
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request reach the handler

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if reqErr != nil {
		t.Errorf("in-flight request failed during drain: %v", reqErr)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v after clean shutdown", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := c.Health(); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestRunUntilSignal sends this process a real SIGTERM while a request is in
// flight and checks the daemon loop drains and exits cleanly.
func TestRunUntilSignal(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	srv := NewServer(ds)
	srv.testDelay = 300 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		runErr <- srv.RunUntilSignal(context.Background(), l, 5*time.Second, syscall.SIGTERM)
	}()

	c := &Client{Base: "http://" + l.Addr().String()}
	waitHealthy(t, c)

	var wg sync.WaitGroup
	var reqErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, reqErr = c.Info(false)
	}()
	time.Sleep(100 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunUntilSignal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunUntilSignal did not return after SIGTERM")
	}
	wg.Wait()
	if reqErr != nil {
		t.Errorf("in-flight request failed during signal drain: %v", reqErr)
	}
}

func waitHealthy(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Health(); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

func TestParseFormatRoundTrip(t *testing.T) {
	boxes := []geom.BBox{
		{Min: geom.Pt(0, 0), Max: geom.Pt(20, 15)},
		{Min: geom.Pt(-3.25, 0.1), Max: geom.Pt(1e18, 0.30000000000000004)},
	}
	for _, b := range boxes {
		got, err := ParseBox(FormatBox(b))
		if err != nil {
			t.Fatal(err)
		}
		if got != b {
			t.Errorf("box round trip: got %+v, want %+v", got, b)
		}
	}
	p := geom.Pt(10.7, 7.500000000000001)
	got, err := ParsePoint(FormatPoint(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("point round trip: got %+v, want %+v", got, p)
	}
	if _, err := ParseBox("1,2,3"); err == nil {
		t.Error("short box parsed")
	}
	if _, err := ParsePoint("x,y"); err == nil {
		t.Error("non-numeric point parsed")
	}
}
