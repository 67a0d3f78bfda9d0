package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The quantile tests run Histogram over the layout internal/load records
// latencies in: seconds from 1µs to 20 minutes in 1.04× steps.
const latencyGrowth = 1.04

func newLatencyHistogram() *Histogram {
	return NewHistogram(ExponentialBuckets(1e-6, 1200, latencyGrowth))
}

func TestQuantileHistogramEmpty(t *testing.T) {
	h := newLatencyHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) on empty = %v, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty extrema: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestQuantileHistogramSingleObservation(t *testing.T) {
	h := newLatencyHistogram()
	h.Observe(0.123)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// With one observation min == max, so the [Min, Max] clamp makes every
	// quantile exact.
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 0.99, 1, 3} {
		if got := h.Quantile(q); got != 0.123 {
			t.Fatalf("Quantile(%v) = %v, want exactly 0.123", q, got)
		}
	}
}

func TestQuantileHistogramOutOfRangeValues(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(1e-3, 10, 1.05))

	// Below the first bucket edge: clamped, and exact via the min clamp.
	h.Observe(1e-9)
	if got := h.Quantile(0.5); got != 1e-9 {
		t.Fatalf("underflow quantile = %v, want 1e-9", got)
	}

	// Above the top edge: the overflow bucket reports the exact max.
	h2 := NewHistogram(ExponentialBuckets(1e-3, 10, 1.05))
	h2.Observe(12345.0)
	if got := h2.Quantile(0.5); got != 12345.0 {
		t.Fatalf("overflow quantile = %v, want 12345", got)
	}

	// Negative and NaN observations count but report as the observed floor.
	h3 := NewHistogram(ExponentialBuckets(1e-3, 10, 1.05))
	h3.Observe(-5)
	h3.Observe(math.NaN())
	if h3.Count() != 2 {
		t.Fatalf("count = %d, want 2", h3.Count())
	}
}

// TestQuantileHistogramErrorBound checks the documented contract: for any
// quantile, the reported value is within √growth − 1 relative error of the
// exact rank statistic over the same observations.
func TestQuantileHistogramErrorBound(t *testing.T) {
	const n = 20000
	h := newLatencyHistogram()
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [50µs, 5s], the realistic latency spread.
		v := math.Exp(math.Log(50e-6) + rng.Float64()*math.Log(5/50e-6))
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)

	bound := math.Sqrt(latencyGrowth) - 1 + 1e-12
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*n)) - 1
		if rank < 0 {
			rank = 0
		}
		exact := vals[rank]
		got := h.Quantile(q)
		rel := math.Abs(got-exact) / exact
		if rel > bound {
			t.Errorf("Quantile(%v) = %v, exact %v: relative error %.4f > bound %.4f", q, got, exact, rel, bound)
		}
	}
	if got := h.Quantile(1); got != vals[n-1] {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, vals[n-1])
	}
	if got := h.Max(); got != vals[n-1] {
		t.Errorf("Max = %v, want %v", got, vals[n-1])
	}
	if got := h.Min(); got != vals[0] {
		t.Errorf("Min = %v, want %v", got, vals[0])
	}
	wantMean := 0.0
	for _, v := range vals {
		wantMean += v
	}
	wantMean /= n
	if got := h.Mean(); math.Abs(got-wantMean)/wantMean > 1e-9 {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
}

func TestQuantileHistogramConcurrent(t *testing.T) {
	h := newLatencyHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i+1) / 1e4)
				if i%256 == 0 {
					h.Quantile(0.99) // readers race writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	p50, p99, max := h.Quantile(0.5), h.Quantile(0.99), h.Max()
	if !(p50 <= p99 && p99 <= max) {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v max=%v", p50, p99, max)
	}
}

func TestQuantileHistogramBadLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for growth <= 1")
		}
	}()
	ExponentialBuckets(1, 10, 1)
}
