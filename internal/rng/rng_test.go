package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different seeds collide %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntn(t *testing.T) {
	r := New(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn bucket %d badly skewed: %d/100000", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("normal mean = %v, want 5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("normal variance = %v, want 4", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(0.5)
		if v < 0 {
			t.Fatalf("negative exponential %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("exp mean = %v, want 2", mean)
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpFloat64(0) did not panic")
		}
	}()
	r.ExpFloat64(0)
}

func TestWeightedIndex(t *testing.T) {
	r := New(19)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.WeightedIndex(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("all-zero weights did not panic")
		}
	}()
	r.WeightedIndex([]float64{0, 0})
}

func TestShuffle(t *testing.T) {
	p := make([]int, 50)
	for i := range p {
		p[i] = i
	}
	New(23).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(42)
	child := a.Split()
	// The child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 100; i++ {
		if a.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("Split stream tracks parent stream")
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		v := r.Range(-3, 8)
		if v < -3 || v >= 8 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	n := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / 100000
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
}

func TestStreamsDeterministic(t *testing.T) {
	a := New(42).Streams()
	b := New(42).Streams()
	for i := uint64(0); i < 8; i++ {
		ra, rb := a.Stream(i), b.Stream(i)
		for k := 0; k < 16; k++ {
			if va, vb := ra.Uint64(), rb.Uint64(); va != vb {
				t.Fatalf("stream %d draw %d differs: %x vs %x", i, k, va, vb)
			}
		}
	}
}

func TestStreamsOrderIndependent(t *testing.T) {
	s := New(7).Streams()
	// Materializing streams in different orders must not change them.
	forward := make([]uint64, 8)
	for i := uint64(0); i < 8; i++ {
		forward[i] = s.Stream(i).Uint64()
	}
	for i := uint64(8); i > 0; i-- {
		if v := s.Stream(i - 1).Uint64(); v != forward[i-1] {
			t.Fatalf("stream %d differs when created in reverse order", i-1)
		}
	}
}

func TestStreamsConsumesOneParentDraw(t *testing.T) {
	a, b := New(9), New(9)
	a.Streams()
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Error("Streams must consume exactly one parent draw")
	}
}

func TestStreamsAdjacentIDsDecorrelated(t *testing.T) {
	// SplitMix64 states that differ by the additive constant produce shifted
	// copies of one sequence; Stream must avoid that for consecutive ids.
	s := New(3).Streams()
	const n = 64
	seq := make(map[uint64][]uint64)
	for i := uint64(0); i < 4; i++ {
		r := s.Stream(i)
		out := make([]uint64, n)
		for k := range out {
			out[k] = r.Uint64()
		}
		seq[i] = out
	}
	for i := uint64(0); i < 3; i++ {
		shifted := 0
		for k := 0; k+1 < n; k++ {
			if seq[i][k+1] == seq[i+1][k] || seq[i][k] == seq[i+1][k] {
				shifted++
			}
		}
		if shifted > 0 {
			t.Errorf("streams %d and %d share %d aligned values", i, i+1, shifted)
		}
	}
}

func TestStreamsDistinctFamilies(t *testing.T) {
	r := New(11)
	f1 := r.Streams()
	f2 := r.Streams()
	if f1.Stream(0).Uint64() == f2.Stream(0).Uint64() {
		t.Error("two families from one parent produced identical streams")
	}
}

func TestStreamStatisticalUniformity(t *testing.T) {
	// Pooled output of many per-id streams should still be uniform.
	s := New(17).Streams()
	const streams, per = 64, 256
	var sum float64
	for i := uint64(0); i < streams; i++ {
		r := s.Stream(i)
		for k := 0; k < per; k++ {
			sum += r.Float64()
		}
	}
	mean := sum / (streams * per)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("pooled stream mean = %v, want ~0.5", mean)
	}
}
