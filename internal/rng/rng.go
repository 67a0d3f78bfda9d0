// Package rng provides the deterministic pseudo-random substrate for all Vita
// generators. Every generator in the toolkit takes an explicit *rng.Rand so
// that a seed fully determines the produced data — the property the paper
// relies on for preserving "ground truth" alongside derived positioning data.
package rng

import "math"

// Rand is a small, fast deterministic PRNG (SplitMix64 core). It is NOT safe
// for concurrent use; derive one per goroutine with Split.
type Rand struct {
	state uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// New returns a Rand seeded with seed. Any seed value, including zero, is
// valid.
func New(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so that small seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from the parent's subsequent output.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche function used to
// scatter stream keys so that numerically adjacent inputs yield unrelated
// generator states.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams is a family of statistically independent generators keyed by an
// integer id. Unlike repeated Split calls, Stream(i) is a pure function of
// (family key, i): streams can be materialized in any order, from any
// goroutine, and the result is identical — the property parallel sharded
// generation relies on for worker-count-independent reproducibility.
type Streams struct {
	key uint64
}

// Streams consumes exactly one value from r and returns the derived family.
// Two calls on the same parent state yield different families.
func (r *Rand) Streams() Streams {
	return Streams{key: r.Uint64()}
}

// Stream returns the generator for id i. Every call with the same i returns
// a fresh generator positioned at the start of the same sequence. The id is
// passed through mix64 before keying so that consecutive ids (object 1, 2,
// 3, ...) do not produce shifted copies of one SplitMix64 sequence.
func (s Streams) Stream(i uint64) *Rand {
	return New(mix64(s.key ^ mix64(i^0xd1342543de82ef95)))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate lambda (mean 1/lambda).
// It panics when lambda <= 0.
func (r *Rand) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: ExpFloat64 with non-positive lambda")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / lambda
}

// WeightedIndex returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive total weight panics.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
