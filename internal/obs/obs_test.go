package obs

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "first as counter")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic re-registering counter as gauge")
		}
	}()
	r.Gauge("dual", "now as gauge")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 5.555 {
		t.Fatalf("sum = %v, want 5.555", got)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 5.555",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabelsAndExposition(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "endpoint", "status")
	v.With("/v1/range", "200").Add(3)
	v.With("/v1/knn", "400").Inc()
	if v.With("/v1/range", "200").Value() != 3 {
		t.Fatalf("labeled series not shared across With calls")
	}

	g := r.GaugeVec("quoted", `has "quotes" and \slashes`, "k")
	g.With(`a"b\c`).Set(1)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`http_requests_total{endpoint="/v1/knn",status="400"} 1`,
		`http_requests_total{endpoint="/v1/range",status="200"} 3`,
		`# HELP quoted has "quotes" and \\slashes`,
		`quoted{k="a\"b\\c"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted series order within a family.
	if strings.Index(out, `endpoint="/v1/knn"`) > strings.Index(out, `endpoint="/v1/range"`) {
		t.Errorf("labeled series not sorted:\n%s", out)
	}
}

func TestFuncMetricsReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn_gauge", "func gauge", func() float64 { return 1 })
	r.GaugeFunc("fn_gauge", "func gauge", func() float64 { return 42 })
	r.CounterFunc("fn_total", "func counter", func() float64 { return 7 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fn_gauge 42") {
		t.Errorf("re-registered func did not replace binding:\n%s", out)
	}
	if !strings.Contains(out, "fn_total 7") {
		t.Errorf("missing func counter:\n%s", out)
	}
}

func TestConcurrentMetricsAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "concurrent counter")
	h := r.HistogramVec("conc_seconds", "concurrent histogram", nil, "endpoint")
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.With("e").Observe(float64(i) / 1000)
				if i%50 == 0 {
					r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.With("e").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSpanTree(t *testing.T) {
	scan := &Span{Op: "Scan", Detail: "t in [0,100)"}
	root := &Span{Op: "Range", Children: []*Span{scan}}
	scan.Rows = 10
	scan.Batches = 2
	scan.BlocksTotal = 5
	scan.BlocksPruned = 3
	scan.BlocksScanned = 2
	scan.AddWall(1500 * time.Microsecond)
	if got := root.SpanCount(); got != 2 {
		t.Fatalf("span count = %d, want 2", got)
	}
	var b bytes.Buffer
	root.WriteTree(&b)
	out := b.String()
	if !strings.Contains(out, "Range") || !strings.Contains(out, "  Scan (t in [0,100))") {
		t.Errorf("tree rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, "blocks=2/5 pruned=3") {
		t.Errorf("tree missing scan stats:\n%s", out)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("request IDs collide: %q", a)
	}
}

func TestLogSetup(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := RegisterLogFlags(fs)
	if err := fs.Parse([]string{"-log-format", "json", "-log-level", "warn"}); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	logger, err := o.Setup(&b)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hidden")
	logger.Warn("visible", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line emitted at warn level:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"visible"`) || !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json log line missing fields:\n%s", out)
	}

	bad := &LogOptions{Format: "xml"}
	if _, err := bad.Setup(io.Discard); err == nil {
		t.Errorf("expected error for unknown format")
	}
	bad = &LogOptions{Format: "text", Level: "loud"}
	if _, err := bad.Setup(io.Discard); err == nil {
		t.Errorf("expected error for unknown level")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Version == "" || b.Go == "" || b.Commit == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	if Uptime() <= 0 {
		t.Fatalf("uptime not positive")
	}
	r := NewRegistry()
	RegisterBuildInfo(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vita_build_info{") {
		t.Errorf("missing vita_build_info:\n%s", buf.String())
	}
}
