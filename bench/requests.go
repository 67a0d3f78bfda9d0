package main

import (
	"hash/fnv"
	"math/rand"

	"vita/internal/geom"
	"vita/internal/obs"
	"vita/internal/serve"
)

// request is one operator call of a list; only the field named by op is set.
type request struct {
	op      int
	rangeQ  serve.RangeRequest
	knnQ    serve.KNNRequest
	density serve.DensityRequest
	traj    serve.TrajRequest
	dwell   serve.DwellRequest
}

// querier is the operator surface serve.Dataset and serve.Client share.
type querier interface {
	Range(serve.RangeRequest) (*serve.RangeResponse, error)
	KNN(serve.KNNRequest) (*serve.KNNResponse, error)
	Density(serve.DensityRequest) (*serve.DensityResponse, error)
	Traj(serve.TrajRequest) (*serve.TrajResponse, error)
	Dwell(serve.DwellRequest) (*serve.DwellResponse, error)
}

// Selectivity constants of the request generator; frozen. Windows are shares
// of the dataset's time span, box edges shares of each axis.
const (
	boxMinFrac, boxMaxFrac     = 0.05, 0.30
	rangeMinFrac, rangeMaxFrac = 0.005, 0.015
	trajMinFrac, trajMaxFrac   = 0.01, 0.03
	dwellMinFrac, dwellMaxFrac = 0.005, 0.015
	knnMaxK                    = 10
)

// stratified returns n values covering [0, 1) evenly — one per stratum of
// width 1/n, jittered inside it — in random order. Drawing the parameters
// that decide a request's cost this way gives every seed a list of the same
// difficulty: the lists differ, the work they add up to does not.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// generateRequests draws n requests for the workload from the seed alone:
// same seed and shape, same list. Operator counts follow the mix exactly;
// the order is shuffled.
func generateRequests(w workload, sh shape, seed uint64, n int) []request {
	// The workload's name is folded in so two workloads never replay one
	// stream, and the data (seeded with the same --seed) draws from its own.
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(int64(seed ^ h.Sum64())))

	var total float64
	for _, x := range w.mix {
		total += x
	}
	ops := make([]int, 0, n)
	var acc float64
	for op, x := range w.mix {
		acc += x
		for len(ops) < int(acc/total*float64(n)+0.5) {
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	span := sh.t1 - sh.t0
	lo, hi := sh.t0+w.lo*span, sh.t0+w.hi*span
	instant := func() float64 { return lo + rng.Float64()*(hi-lo) }
	// window places a window whose width is the u-th point between the two
	// span shares.
	window := func(u, minFrac, maxFrac float64) (float64, float64) {
		width := min((minFrac+u*(maxFrac-minFrac))*span, hi-lo)
		start := lo + rng.Float64()*(hi-lo-width)
		return start, start + width
	}
	floor := func(u float64) int { return sh.floors[int(u*float64(len(sh.floors)))] }
	dx, dy := sh.bounds.Max.X-sh.bounds.Min.X, sh.bounds.Max.Y-sh.bounds.Min.Y

	// Three independent cost dimensions per request at most.
	u1, u2, u3 := stratified(rng, n), stratified(rng, n), stratified(rng, n)
	list := make([]request, n)
	for i, op := range ops {
		r := request{op: op}
		switch op {
		case opRange:
			bw := (boxMinFrac + u2[i]*(boxMaxFrac-boxMinFrac)) * dx
			bh := (boxMinFrac + u3[i]*(boxMaxFrac-boxMinFrac)) * dy
			bx := sh.bounds.Min.X + rng.Float64()*(dx-bw)
			by := sh.bounds.Min.Y + rng.Float64()*(dy-bh)
			t0, t1 := window(u1[i], rangeMinFrac, rangeMaxFrac)
			r.rangeQ = serve.RangeRequest{
				Floor: floor(rng.Float64()),
				Box:   geom.BBox{Min: geom.Pt(bx, by), Max: geom.Pt(bx+bw, by+bh)},
				T0:    t0,
				T1:    t1,
			}
		case opKNN:
			r.knnQ = serve.KNNRequest{
				Floor: floor(rng.Float64()),
				At:    geom.Pt(sh.bounds.Min.X+rng.Float64()*dx, sh.bounds.Min.Y+rng.Float64()*dy),
				T:     instant(),
				K:     1 + int(u1[i]*knnMaxK),
			}
		case opDensity:
			r.density = serve.DensityRequest{T: instant()}
		case opTraj:
			t0, t1 := window(u1[i], trajMinFrac, trajMaxFrac)
			r.traj = serve.TrajRequest{Obj: rng.Intn(sh.objects), T0: t0, T1: t1}
		case opDwell:
			t0, t1 := window(u1[i], dwellMinFrac, dwellMaxFrac)
			fl := -1 // all floors for half the requests, one floor for the rest
			if u2[i] >= 0.5 {
				fl = floor(2*u2[i] - 1)
			}
			r.dwell = serve.DwellRequest{Floor: fl, T0: t0, T1: t1}
		}
		list[i] = r
	}
	return list
}

// answer is what the bench keeps of one response. body is the response with
// Stats and Trace already moved out, so it is the part that must be
// identical however the request was served.
type answer struct {
	body  any
	stats serve.Stats
	trace *obs.Span
	rows  int // result cardinality
}

// detach moves a response's stats and trace out of its body.
func detach(stats *serve.Stats, trace **obs.Span) (serve.Stats, *obs.Span) {
	s, t := *stats, *trace
	*stats, *trace = serve.Stats{}, nil
	return s, t
}

// issue executes r against q, asking for a span tree when trace is set.
func issue(q querier, r *request, trace bool) (answer, error) {
	switch r.op {
	case opRange:
		req := r.rangeQ
		req.Trace = trace
		resp, err := q.Range(req)
		if err != nil {
			return answer{}, err
		}
		a := answer{body: resp, rows: len(resp.Hits)}
		a.stats, a.trace = detach(&resp.Stats, &resp.Trace)
		return a, nil
	case opKNN:
		req := r.knnQ
		req.Trace = trace
		resp, err := q.KNN(req)
		if err != nil {
			return answer{}, err
		}
		a := answer{body: resp, rows: len(resp.Neighbors)}
		a.stats, a.trace = detach(&resp.Stats, &resp.Trace)
		return a, nil
	case opDensity:
		req := r.density
		req.Trace = trace
		resp, err := q.Density(req)
		if err != nil {
			return answer{}, err
		}
		a := answer{body: resp, rows: len(resp.Counts)}
		a.stats, a.trace = detach(&resp.Stats, &resp.Trace)
		return a, nil
	case opTraj:
		req := r.traj
		req.Trace = trace
		resp, err := q.Traj(req)
		if err != nil {
			return answer{}, err
		}
		a := answer{body: resp, rows: len(resp.Samples)}
		a.stats, a.trace = detach(&resp.Stats, &resp.Trace)
		return a, nil
	default:
		req := r.dwell
		req.Trace = trace
		resp, err := q.Dwell(req)
		if err != nil {
			return answer{}, err
		}
		a := answer{body: resp, rows: len(resp.Rooms)}
		a.stats, a.trace = detach(&resp.Stats, &resp.Trace)
		return a, nil
	}
}
