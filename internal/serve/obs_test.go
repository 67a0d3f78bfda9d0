package serve

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vita/internal/geom"
	"vita/internal/obs"
	"vita/internal/storage"
)

// quietLogger drops all request logs, keeping concurrent tests readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// scrapeMetrics fetches /metricsz and parses every sample line into
// "name{labels}" → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	res, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: HTTP %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metricsz content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metricsz: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metricsz: bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsUnderConcurrentQueriesAndRefresh is the observability
// acceptance gate: a segmented dataset serves a battery of concurrent
// queries (some traced, some failing) while the manifest refreshes
// mid-flight, and afterwards /metricsz must agree exactly with the requests
// sent, the responses' stats and the dataset — histogram counts equal
// request counts, status labels partition them, and every counter is
// monotonic between scrapes.
func TestMetricsUnderConcurrentQueriesAndRefresh(t *testing.T) {
	samples := testSamples()
	half := len(samples) / 2
	dir := t.TempDir()
	l := writeSegmented(t, dir, samples[:half], half/3+1)

	ds, err := Open(dir, Config{WatchInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	reg := obs.NewRegistry()
	srv := NewServerWith(ds, ServerOptions{Metrics: reg, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	const workers, iters = 8, 5
	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)}
	var wg sync.WaitGroup
	var pruned atomic.Int64 // blocks pruned, summed over the responses' stats
	errs := make(chan error, workers*iters*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := RangeRequest{Floor: -1, Box: box, T0: float64(i * 10), T1: float64(i*10 + 50)}
				q.Trace = w%2 == 0 // half the workers ask for traces
				if resp, err := c.Range(q); err != nil {
					errs <- err
				} else {
					pruned.Add(int64(resp.Stats.Scan.BlocksPruned))
				}
				if resp, err := c.KNN(KNNRequest{Floor: 0, At: geom.Pt(10, 7.5), T: 100, K: 3}); err != nil {
					errs <- err
				} else {
					pruned.Add(int64(resp.Stats.Scan.BlocksPruned))
				}
				if resp, err := c.Traj(TrajRequest{Obj: w, T0: 0, T1: 600}); err != nil {
					errs <- err
				} else {
					pruned.Add(int64(resp.Stats.Scan.BlocksPruned))
				}
				// One malformed request per iteration: must count as a 400,
				// not a request the operator counters see.
				res, err := http.Get(ts.URL + "/v1/range?box=bogus")
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusBadRequest {
					t.Errorf("bad request got HTTP %d", res.StatusCode)
				}
			}
		}(w)
	}

	// Mid-flight: roll in the second half of the data in two batches with a
	// refresh after each, so in-flight queries span two generation changes.
	mid := scrapeMetrics(t, ts.URL)
	cut := (half + len(samples)) / 2
	for _, batch := range [][2]int{{half, cut}, {cut, len(samples)}} {
		chunk := samples[batch[0]:batch[1]]
		appendSegmented(t, l, chunk, len(chunk)+1)
		if changed, err := ds.Refresh(); err != nil {
			t.Fatal(err)
		} else if !changed {
			t.Fatal("refresh saw no new generation after an append")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A client can finish reading a response before the server's middleware
	// has counted the request, so give the last handlers a moment to return.
	counted := func(m map[string]float64) float64 {
		return m[`vita_http_request_duration_seconds_count{endpoint="/v1/range"}`] +
			m[`vita_http_request_duration_seconds_count{endpoint="/v1/knn"}`] +
			m[`vita_http_request_duration_seconds_count{endpoint="/v1/traj"}`]
	}
	final := scrapeMetrics(t, ts.URL)
	for deadline := time.Now().Add(2 * time.Second); counted(final) < 4*workers*iters && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		final = scrapeMetrics(t, ts.URL)
	}

	// Counters never move backwards, under any interleaving.
	for series, v1 := range mid {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		monotonic := strings.HasSuffix(name, "_total") ||
			strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_sum")
		if !monotonic {
			continue
		}
		if v2, ok := final[series]; ok && v2 < v1 {
			t.Errorf("%s went backwards: %g -> %g", series, v1, v2)
		}
	}

	// Exact accounting: every worker iteration issued one good and one bad
	// range, one knn, one traj.
	n := float64(workers * iters)
	checks := map[string]float64{
		`vita_http_requests_total{endpoint="/v1/range",status="200"}`:    n,
		`vita_http_requests_total{endpoint="/v1/range",status="400"}`:    n,
		`vita_http_requests_total{endpoint="/v1/knn",status="200"}`:      n,
		`vita_http_requests_total{endpoint="/v1/traj",status="200"}`:     n,
		`vita_http_request_duration_seconds_count{endpoint="/v1/range"}`: 2 * n,
		`vita_http_request_duration_seconds_count{endpoint="/v1/knn"}`:   n,
		`vita_http_request_duration_seconds_count{endpoint="/v1/traj"}`:  n,
		`vita_http_errors_total`:        n,
		`vita_manifest_refreshes_total`: 2,
		`vita_dataset_generation`:       float64(ds.Generation()),
	}
	for series, want := range checks {
		if got := final[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	for _, series := range []string{
		`vita_blocks_pruned_total`,
		`vita_blocks_decoded_total`,
		`vita_block_cache_hits_total`,
		`vita_dataset_segments`,
	} {
		if final[series] == 0 {
			t.Errorf("%s is zero after the query battery", series)
		}
	}
	b := obs.Build()
	if _, ok := final[`vita_build_info{version="`+b.Version+`",commit="`+b.Commit+`",go="`+b.Go+`"}`]; !ok {
		t.Error("vita_build_info series missing")
	}

	// The per-operator counts (the status="200" series above: only requests
	// that parsed reach an operator) and the error total are pinned by the
	// checks; the refresh and pruning series must also match the dataset and
	// the responses.
	if got := ds.Refreshes(); got != 2 || final[`vita_manifest_refreshes_total`] != float64(got) {
		t.Errorf("dataset refreshes = %d, metricsz %g, want 2", got, final[`vita_manifest_refreshes_total`])
	}
	if got := float64(pruned.Load()); got != final[`vita_blocks_pruned_total`] {
		t.Errorf("responses pruned %g blocks, metricsz %g", got, final[`vita_blocks_pruned_total`])
	}
}

// findServeSpan walks a span tree for the first span with the given op.
func findServeSpan(s *obs.Span, op string) *obs.Span {
	if s == nil {
		return nil
	}
	if s.Op == op {
		return s
	}
	for _, c := range s.Children {
		if got := findServeSpan(c, op); got != nil {
			return got
		}
	}
	return nil
}

// TestTraceMatchesResponseStats pins the trace contract on every surface:
// the span tree's row and pruning counts must equal the response's Stats,
// locally and over HTTP — and be absent entirely when not asked for.
func TestTraceMatchesResponseStats(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)}
	q := RangeRequest{Floor: -1, Box: box, T0: 50, T1: 150, Trace: true}

	local, err := ds.Range(q)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Range(q)
	if err != nil {
		t.Fatal(err)
	}
	for surface, resp := range map[string]*RangeResponse{"local": local, "remote": remote} {
		root := resp.Trace
		if root == nil {
			t.Fatalf("%s: traced request returned no trace", surface)
		}
		if root.Op != "Range" {
			t.Errorf("%s: root span %q, want Range", surface, root.Op)
		}
		if root.Rows != len(resp.Hits) {
			t.Errorf("%s: root rows %d != %d hits", surface, root.Rows, len(resp.Hits))
		}
		scan := findServeSpan(root, "Scan")
		if scan == nil {
			t.Fatalf("%s: no Scan span in trace", surface)
		}
		if scan.BlocksScanned != resp.Stats.Scan.BlocksScanned ||
			scan.BlocksPruned != resp.Stats.Scan.BlocksPruned ||
			scan.RowsMatched != resp.Stats.Scan.RowsMatched {
			t.Errorf("%s: scan span (%d scanned, %d pruned, %d matched) != stats (%d, %d, %d)",
				surface, scan.BlocksScanned, scan.BlocksPruned, scan.RowsMatched,
				resp.Stats.Scan.BlocksScanned, resp.Stats.Scan.BlocksPruned, resp.Stats.Scan.RowsMatched)
		}
		if sort := findServeSpan(root, "OrderBy"); sort == nil || sort.Rows != len(resp.Hits) {
			t.Errorf("%s: OrderBy span %+v, want one carrying the %d hits", surface, sort, len(resp.Hits))
		}
	}

	// Dwell runs as pure plan algebra: its trace is the operator tree.
	dw, err := c.Dwell(DwellRequest{Floor: -1, T0: 50, T1: 450, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if dw.Trace == nil || dw.Trace.Op != "Dwell" {
		t.Fatalf("dwell trace root: %+v", dw.Trace)
	}
	if dw.Trace.Rows != len(dw.Rooms) {
		t.Errorf("dwell root rows %d != %d rooms", dw.Trace.Rows, len(dw.Rooms))
	}
	if dw.Trace.SpanCount() < 3 {
		t.Errorf("dwell trace has %d spans; want the full operator chain", dw.Trace.SpanCount())
	}

	// Untraced requests must carry no trace — on the wire or locally.
	plain, err := c.Range(RangeRequest{Floor: -1, Box: box, T0: 50, T1: 150})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced remote request returned a trace")
	}
	lp, err := ds.Range(RangeRequest{Floor: -1, Box: box, T0: 51, T1: 150})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Trace != nil {
		t.Error("untraced local request returned a trace")
	}
}

// syncBuf is a concurrency-safe log sink.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog forces the threshold to one nanosecond: every operator
// request must emit a slow-query log line with its trace — while the
// response stays trace-free unless the client opted in with ?trace=1.
func TestSlowQueryLog(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	var buf syncBuf
	srv := NewServerWith(ds, ServerOptions{
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
		Metrics:   obs.NewRegistry(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	box := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(40, 20)}
	resp, err := c.Range(RangeRequest{Floor: -1, Box: box, T0: 0, T1: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Error("slow-query tracing leaked into an untraced response")
	}
	log := buf.String()
	if !strings.Contains(log, `"msg":"slow query"`) {
		t.Fatalf("no slow-query log line:\n%s", log)
	}
	if !strings.Contains(log, `\"op\":\"Range\"`) {
		t.Errorf("slow-query log carries no trace:\n%s", log)
	}

	traced, err := c.Range(RangeRequest{Floor: -1, Box: box, T0: 0, T1: 100, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Error("?trace=1 returned no trace under the slow-query regime")
	}
}

// TestRequestIDAndErrorBody checks the join key between client reports and
// server logs: a caller-supplied X-Request-Id is echoed in the response
// header and the structured error body.
func TestRequestIDAndErrorBody(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	req, err := http.NewRequest("GET", ts.URL+"/v1/range?box=bogus", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", res.StatusCode)
	}
	if got := res.Header.Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Errorf("echoed request ID %q", got)
	}
	body, _ := io.ReadAll(res.Body)
	if !strings.Contains(string(body), `"request_id":"caller-supplied-42"`) {
		t.Errorf("error body lacks the request ID: %s", body)
	}
	if !strings.Contains(string(body), `"error":`) {
		t.Errorf("error body lacks a message: %s", body)
	}

	// Without a caller ID the server mints one: 16 hex chars.
	res2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if id := res2.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", id)
	}
}

// TestHandlerPanicIsCounted: a handler that panics is still a measured
// request. The middleware answers the 500 error envelope with the request
// ID, counts the request under status="500" and in vita_http_errors_total,
// observes its latency, logs the stack at error level, and the in-flight
// gauge the handler raised comes back down.
func TestHandlerPanicIsCounted(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	var logs syncBuf
	srv := NewServerWith(ds, ServerOptions{Logger: slog.New(slog.NewJSONHandler(&logs, nil)), Metrics: obs.NewRegistry()})
	boom := httptest.NewServer(srv.withObs(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		srv.inFlight.Add(1)
		defer srv.inFlight.Add(-1)
		panic("index out of range [0]")
	})))
	t.Cleanup(boom.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req, err := http.NewRequest("GET", boom.URL+"/v1/info", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "boom-1")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("the panic reached the client as a transport error: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Errorf("HTTP %d, want 500", res.StatusCode)
	}
	if want := `{"error":"internal error","request_id":"boom-1"}`; strings.TrimSpace(string(body)) != want {
		t.Errorf("body %s, want %s", body, want)
	}

	m := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`vita_http_requests_total{endpoint="/v1/info",status="500"}`:    1,
		`vita_http_request_duration_seconds_count{endpoint="/v1/info"}`: 1,
		`vita_http_errors_total`: 1,
		`vita_http_in_flight`:    0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present: %v), want %v", series, got, ok, want)
		}
	}
	log := logs.String()
	for _, want := range []string{`"level":"ERROR"`, `"msg":"handler panic"`, `"request_id":"boom-1"`, `index out of range [0]`, `"stack":"goroutine `} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %s:\n%s", want, log)
		}
	}
}

// TestMetricszRuntimeSeries checks a stock server's /metricsz carries the
// go_*/process_* runtime series, with live (sane) values — no opt-in
// required.
func TestMetricszRuntimeSeries(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	m := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"go_goroutines", "go_gomaxprocs",
		"go_memstats_alloc_bytes", "go_memstats_sys_bytes",
		"go_memstats_heap_inuse_bytes",
	} {
		if v, ok := m[name]; !ok {
			t.Errorf("missing runtime series %s", name)
		} else if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if runtime.GOOS == "linux" {
		rss, ok := m["process_resident_memory_bytes"]
		if !ok {
			t.Fatal("missing process_resident_memory_bytes on linux")
		}
		if rss < 1<<20 || rss > 1<<42 {
			t.Errorf("process_resident_memory_bytes = %g, not a plausible RSS", rss)
		}
		if m["process_open_fds"] < 1 {
			t.Errorf("process_open_fds = %g, want >= 1", m["process_open_fds"])
		}
	}
	if m["process_uptime_seconds"] < 0 {
		t.Errorf("process_uptime_seconds = %g, want >= 0", m["process_uptime_seconds"])
	}
}

// TestClientOptionsTransport checks NewClient produces a dedicated tuned
// transport (not a shared http.DefaultClient) and that its timeout actually
// fires — the knobs vitaload leans on for high-concurrency replay.
func TestClientOptionsTransport(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL, ClientOptions{Timeout: 5 * time.Second, MaxIdleConnsPerHost: 64})
	if c.HTTP == nil || c.HTTP == http.DefaultClient {
		t.Fatal("NewClient must build a dedicated http.Client")
	}
	tr, ok := c.HTTP.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", c.HTTP.Transport)
	}
	if tr == http.DefaultTransport {
		t.Fatal("NewClient must clone, not share, http.DefaultTransport")
	}
	if tr.MaxIdleConnsPerHost != 64 {
		t.Errorf("transport knob: idle/host=%d, want 64", tr.MaxIdleConnsPerHost)
	}
	if _, err := c.Info(false); err != nil {
		t.Fatalf("tuned client request failed: %v", err)
	}

	// A stalled server must trip the timeout instead of hanging the caller.
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(stall.Close)
	slow := NewClient(stall.URL, ClientOptions{Timeout: 50 * time.Millisecond})
	start := time.Now()
	if _, err := slow.Info(false); err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the request")
	}
}

// TestInfoBounds checks /v1/info carries the dataset's spatial bounding box
// on the JSON surface, identically local and remote.
func TestInfoBounds(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	local, err := ds.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Info(false)
	if err != nil {
		t.Fatal(err)
	}
	if local.Bounds != remote.Bounds {
		t.Errorf("bounds differ: local %v remote %v", local.Bounds, remote.Bounds)
	}
	b := remote.Bounds
	if !(b.Min.X < b.Max.X && b.Min.Y < b.Max.Y) {
		t.Errorf("degenerate bounds %v for a multi-sample dataset", b)
	}
}

// TestHealthzBuildInfo checks /healthz now answers "what exactly is
// running", through the typed client.
func TestHealthzBuildInfo(t *testing.T) {
	ds := openTestDataset(t, storage.FormatVTB, Config{})
	ts := httptest.NewServer(NewServerWith(ds, ServerOptions{Logger: quietLogger(), Metrics: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Version == "" || h.Go == "" {
		t.Errorf("build identity incomplete: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %g", h.UptimeSeconds)
	}
}
