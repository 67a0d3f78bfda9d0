package load

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"vita/internal/geom"
	"vita/internal/serve"
)

// draws holds, for every operator a Mix can weight, how the generator draws
// one call of it. info is not one: Run calls it once, to fit the generator;
// nor is watch, a whole-dataset replay no interactive mix issues.
var draws = map[string]func(*generator, *rand.Rand) func(serve.Querier) error{
	"range":   drawn((*generator).rangeReq, serve.Querier.Range),
	"knn":     drawn((*generator).knnReq, serve.Querier.KNN),
	"density": drawn((*generator).densityReq, serve.Querier.Density),
	"traj":    drawn((*generator).trajReq, serve.Querier.Traj),
	"dwell":   drawn((*generator).dwellReq, serve.Querier.Dwell),
}

// drawn draws a request with req and issues it through the Querier method m.
func drawn[Q, R any](req func(*generator, *rand.Rand) Q, m func(serve.Querier, Q) (R, error)) func(*generator, *rand.Rand) func(serve.Querier) error {
	return func(g *generator, rng *rand.Rand) func(serve.Querier) error {
		q := req(g, rng)
		return func(c serve.Querier) error { _, err := m(c, q); return err }
	}
}

// mixable lists the operators a Mix can weight in serve.Operators order, the
// canonical order that keeps draws seed-stable.
func mixable() []string {
	var ops []string
	for _, op := range serve.Operators {
		if draws[op.Name] != nil {
			ops = append(ops, op.Name)
		}
	}
	return ops
}

// Mix is a weighted query mix: how often each operator is issued. Weights
// are relative (they need not sum to anything in particular); zero-weight
// operators are never issued.
type Mix struct {
	Weights map[string]float64
}

// DefaultMix approximates an interactive monitoring workload: mostly range
// scans and kNN probes, some trajectory retrievals, occasional analytic
// density/dwell queries.
func DefaultMix() Mix {
	return Mix{Weights: map[string]float64{
		"range":   40,
		"knn":     25,
		"traj":    20,
		"density": 10,
		"dwell":   5,
	}}
}

// ParseMix parses "range=40,knn=25,traj=20" into a Mix. Unknown operators
// and non-positive totals are errors; operators left out get weight zero.
func ParseMix(s string) (Mix, error) {
	m := Mix{Weights: map[string]float64{}}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("load: bad mix term %q, want op=weight", part)
		}
		op = strings.TrimSpace(op)
		if draws[op] == nil {
			return Mix{}, fmt.Errorf("load: unknown operator %q in mix (have %s)", op, strings.Join(mixable(), ", "))
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("load: bad weight %q for %s", val, op)
		}
		m.Weights[op] = w
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	if total <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q has no positive weight", s)
	}
	return m, nil
}

// String renders the mix in ParseMix syntax, canonical operator order.
func (m Mix) String() string {
	var parts []string
	for _, op := range mixable() {
		if w := m.Weights[op]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", op, w))
		}
	}
	return strings.Join(parts, ",")
}

// generator draws operator calls from a Mix with parameters fitted to a
// dataset's /v1/info summary, so generated queries actually intersect the
// data: boxes and points inside the spatial bounds, windows inside the time
// span, floors from the real floor list, object IDs under the object count.
//
// Draws are deterministic given the rand source — replaying with the same
// seed issues the identical query sequence.
type generator struct {
	ops []string  // operators with positive weight, in mixable order
	cum []float64 // cumulative weights aligned with ops

	floors  []int
	objects int
	t0, t1  float64
	bounds  geom.BBox
}

// newGenerator fits a generator to the dataset summary. An empty dataset is
// an error: there is nothing meaningful to replay against.
func newGenerator(mix Mix, info *serve.InfoResponse) (*generator, error) {
	g := &generator{
		floors:  info.Floors,
		objects: info.Objects,
		t0:      info.T0,
		t1:      info.T1,
		bounds:  info.Bounds,
	}
	if info.Empty || info.Samples == 0 {
		return nil, fmt.Errorf("load: dataset is empty")
	}
	if g.t1 <= g.t0 {
		g.t1 = g.t0 + 1
	}
	if g.bounds.Max.X <= g.bounds.Min.X {
		g.bounds.Max.X = g.bounds.Min.X + 1
	}
	if g.bounds.Max.Y <= g.bounds.Min.Y {
		g.bounds.Max.Y = g.bounds.Min.Y + 1
	}
	if len(g.floors) == 0 {
		g.floors = []int{0}
	}
	if g.objects <= 0 {
		g.objects = 1
	}
	total := 0.0
	for _, op := range mixable() {
		w := mix.Weights[op]
		if w <= 0 {
			continue
		}
		total += w
		g.ops = append(g.ops, op)
		g.cum = append(g.cum, total)
	}
	if len(g.ops) == 0 {
		return nil, fmt.Errorf("load: mix has no positive weight")
	}
	return g, nil
}

// next draws one operator call. The returned func issues it against any
// Querier and reports the request error, if any.
func (g *generator) next(rng *rand.Rand) (op string, call func(serve.Querier) error) {
	x := rng.Float64() * g.cum[len(g.cum)-1]
	i := sort.SearchFloat64s(g.cum, x)
	if i >= len(g.ops) {
		i = len(g.ops) - 1
	}
	return g.ops[i], draws[g.ops[i]](g, rng)
}

// window draws a random time window covering up to maxFrac of the span.
func (g *generator) window(rng *rand.Rand, maxFrac float64) (t0, t1 float64) {
	span := g.t1 - g.t0
	width := (0.02 + rng.Float64()*(maxFrac-0.02)) * span
	start := g.t0 + rng.Float64()*(span-width)
	return start, start + width
}

func (g *generator) instant(rng *rand.Rand) float64 {
	return g.t0 + rng.Float64()*(g.t1-g.t0)
}

func (g *generator) point(rng *rand.Rand) geom.Point {
	return geom.Pt(
		g.bounds.Min.X+rng.Float64()*(g.bounds.Max.X-g.bounds.Min.X),
		g.bounds.Min.Y+rng.Float64()*(g.bounds.Max.Y-g.bounds.Min.Y),
	)
}

// floor draws a real floor most of the time and the all-floors wildcard
// (-1) for the rest, matching how dashboards query.
func (g *generator) floor(rng *rand.Rand, wildcardFrac float64) int {
	if rng.Float64() < wildcardFrac {
		return -1
	}
	return g.floors[rng.Intn(len(g.floors))]
}

func (g *generator) rangeReq(rng *rand.Rand) serve.RangeRequest {
	// Box edges cover 5–30% of each dimension: selective enough to exercise
	// pruning, wide enough to return rows.
	w := (0.05 + rng.Float64()*0.25) * (g.bounds.Max.X - g.bounds.Min.X)
	h := (0.05 + rng.Float64()*0.25) * (g.bounds.Max.Y - g.bounds.Min.Y)
	x := g.bounds.Min.X + rng.Float64()*(g.bounds.Max.X-g.bounds.Min.X-w)
	y := g.bounds.Min.Y + rng.Float64()*(g.bounds.Max.Y-g.bounds.Min.Y-h)
	t0, t1 := g.window(rng, 0.2)
	return serve.RangeRequest{
		Floor: g.floor(rng, 0.3),
		Box:   geom.BBox{Min: geom.Pt(x, y), Max: geom.Pt(x+w, y+h)},
		T0:    t0,
		T1:    t1,
	}
}

func (g *generator) knnReq(rng *rand.Rand) serve.KNNRequest {
	return serve.KNNRequest{
		Floor: g.floors[rng.Intn(len(g.floors))],
		At:    g.point(rng),
		T:     g.instant(rng),
		K:     1 + rng.Intn(10),
	}
}

func (g *generator) densityReq(rng *rand.Rand) serve.DensityRequest {
	return serve.DensityRequest{T: g.instant(rng)}
}

func (g *generator) trajReq(rng *rand.Rand) serve.TrajRequest {
	t0, t1 := g.window(rng, 0.5)
	return serve.TrajRequest{
		// Generated datasets number objects densely from 0; a miss returns
		// an empty trajectory, which is itself a realistic request.
		Obj: rng.Intn(g.objects),
		T0:  t0,
		T1:  t1,
	}
}

func (g *generator) dwellReq(rng *rand.Rand) serve.DwellRequest {
	t0, t1 := g.window(rng, 0.3)
	return serve.DwellRequest{Floor: g.floor(rng, 0.5), T0: t0, T1: t1}
}
