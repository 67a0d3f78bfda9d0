package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout (seconds): sub-ms
// cache-hit responses up through multi-second cold scans.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExponentialBuckets returns bucket upper bounds min·growth^i, from min up to
// the first bound at or above max: the layout under which Histogram.Quantile
// is within √growth − 1 relative error of the true quantile for observations
// in (min, max]. It panics unless 0 < min < max and growth > 1.
func ExponentialBuckets(min, max, growth float64) []float64 {
	if !(min > 0) || !(max > min) || !(growth > 1) {
		panic("obs: ExponentialBuckets wants 0 < min < max and growth > 1")
	}
	n := int(math.Ceil(math.Log(max/min) / math.Log(growth)))
	upper := make([]float64, n+1)
	for i := range upper {
		upper[i] = min * math.Pow(growth, float64(i))
	}
	return upper
}

// Registry holds metric families and renders them in Prometheus text format.
// Registration is get-or-register: asking for an existing name with the same
// shape returns the existing metric (so two servers in one process share
// series); a name re-registered with a different type or label set panics —
// that is a programming error, not a runtime condition. The hot path (Inc,
// Add, Observe on an already-held metric) takes no registry locks at all.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry. Most code uses Default instead.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one named metric: its metadata and its series (one per label
// combination; unlabeled metrics hold a single series under the empty key).
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string

	mu     sync.RWMutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Histogram | funcSeries
	order  []string
}

// lookup returns the family for name, creating it with the given shape on
// first use and validating the shape on every later one.
func (r *Registry) lookup(name, help, typ string, labels []string) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.fams[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, labels: labels, series: map[string]any{}}
			r.fams[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d label(s), was %s with %d",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

// child returns the series for one label-value combination, creating it with
// mk on first use. Combined label values are joined with \xff, which cannot
// appear in a well-formed label value.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s == nil {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// --- Counter ---

// Counter is a monotonically increasing integer series.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the series monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the named unlabeled counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. Handlers resolve their series once at setup, not per request.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, "counter", labels)}
}

// --- Gauge ---

// Gauge is a float series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the named unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, "gauge", labels)}
}

// --- Func-backed series ---

// funcSeries is a series whose value is computed at scrape time — the bridge
// from existing atomic counters (cache stats, manifest generation) to the
// exposition without double-counting plumbing.
type funcSeries struct {
	mu sync.Mutex
	fn func() float64
}

func (s *funcSeries) value() float64 {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	return fn()
}

// registerFunc installs fn as the named series. Re-registering replaces the
// function — the latest binding wins, so a process that opens a second
// Dataset (tests, reloads) scrapes the live one.
func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	f := r.lookup(name, help, typ, nil)
	s := f.child(nil, func() any { return &funcSeries{fn: fn} }).(*funcSeries)
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// CounterFunc exposes fn as a counter evaluated at scrape time. fn must be
// monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "counter", fn)
}

// GaugeFunc exposes fn as a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "gauge", fn)
}

// --- Histogram ---

// Histogram counts observations into fixed buckets (cumulative `le` upper
// bounds in the exposition, like Prometheus client histograms) and tracks
// their sum and exact extrema, from which it also answers quantile queries.
// Observe is lock-free: one atomic add per observation plus CAS loops for
// the sum and, when an observation moves them, the extrema. Readers are safe
// alongside writers; a snapshot taken while they run is weakly consistent.
type Histogram struct {
	upper    []float64 // sorted bucket upper bounds; +Inf bucket is implicit
	counts   []atomic.Uint64
	sum      Gauge
	min, max atomic.Uint64 // math.Float64bits of the extreme observations
}

// NewHistogram returns a histogram with the given bucket upper bounds that
// belongs to no registry: a client-side latency record, say.
func NewHistogram(buckets []float64) *Histogram {
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	h := &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	casFloor(&h.min, v)
	casCeil(&h.max, v)
}

// casFloor lowers the stored float64 bits to v if v is smaller.
func casFloor(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casCeil raises the stored float64 bits to v if v is larger.
func casCeil(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.extreme(&h.min) }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.extreme(&h.max) }

func (h *Histogram) extreme(bits *atomic.Uint64) float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(bits.Load())
}

// Quantile returns the value at quantile q ∈ [0, 1]: the exact minimum for
// q ≤ 0, the exact maximum for q ≥ 1, and 0 when the histogram is empty.
// Otherwise it finds the bucket holding the rank-⌈q·count⌉ observation and
// returns the geometric midpoint of its bounds — the first bucket its upper
// bound, the +Inf bucket the exact maximum — clamped into [Min, Max]. Over
// ExponentialBuckets(min, max, growth) the answer is within √growth − 1
// relative error for observations in (min, max].
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	switch {
	case total == 0:
		return 0
	case q <= 0:
		return h.Min()
	case q >= 1:
		return h.Max()
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	i, cum := 0, h.counts[0].Load()
	for cum < rank && i < len(h.upper) {
		i++
		cum += h.counts[i].Load()
	}
	v := h.Max() // the +Inf bucket
	if i < len(h.upper) {
		v = h.upper[i]
		if i > 0 && h.upper[i-1] > 0 {
			v = math.Sqrt(h.upper[i-1] * v)
		}
	}
	return math.Min(math.Max(v, h.Min()), h.Max())
}

// Histogram returns the named unlabeled histogram with the given bucket
// upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.lookup(name, help, "histogram", nil)
	return f.child(nil, func() any { return NewHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return NewHistogram(v.buckets) }).(*Histogram)
}

// HistogramVec returns the named labeled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, "histogram", labels), buckets: buckets}
}

// --- Exposition ---

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families in registration order and
// labeled series sorted by label values, so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	series := make([]any, 0, len(keys))
	for _, k := range keys {
		series = append(series, f.series[k])
	}
	f.mu.RUnlock()
	if len(series) == 0 {
		return
	}
	sort.Sort(&keyedSeries{keys: keys, series: series})

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\xff")
		}
		switch s := series[i].(type) {
		case *Counter:
			writeSample(b, f.name, f.labels, values, "", "", float64(s.Value()))
		case *Gauge:
			writeSample(b, f.name, f.labels, values, "", "", s.Value())
		case *funcSeries:
			writeSample(b, f.name, f.labels, values, "", "", s.value())
		case *Histogram:
			var cum uint64
			for j, upper := range s.upper {
				cum += s.counts[j].Load()
				writeSample(b, f.name+"_bucket", f.labels, values, "le", formatFloat(upper), float64(cum))
			}
			cum += s.counts[len(s.upper)].Load()
			writeSample(b, f.name+"_bucket", f.labels, values, "le", "+Inf", float64(cum))
			writeSample(b, f.name+"_sum", f.labels, values, "", "", s.Sum())
			writeSample(b, f.name+"_count", f.labels, values, "", "", float64(cum))
		}
	}
}

// keyedSeries sorts label keys and their series in lockstep.
type keyedSeries struct {
	keys   []string
	series []any
}

func (k *keyedSeries) Len() int           { return len(k.keys) }
func (k *keyedSeries) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedSeries) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.series[i], k.series[j] = k.series[j], k.series[i]
}

// writeSample renders one exposition line, appending an extra label (the
// histogram's le) when given.
func writeSample(b *strings.Builder, name string, labels, values []string, extraK, extraV string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraK)
			b.WriteString(`="`)
			b.WriteString(extraV)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
