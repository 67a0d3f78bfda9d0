package serve

import (
	"flag"
	"fmt"
	"math"
	"net/url"
	"testing"

	"vita/internal/geom"
)

// recorder is a Querier that keeps the request it was asked and answers
// an empty response.
type recorder struct{ got any }

func (r *recorder) Range(q RangeRequest) (*RangeResponse, error) {
	r.got = q
	return &RangeResponse{}, nil
}
func (r *recorder) KNN(q KNNRequest) (*KNNResponse, error) { r.got = q; return &KNNResponse{}, nil }
func (r *recorder) Density(q DensityRequest) (*DensityResponse, error) {
	r.got = q
	return &DensityResponse{}, nil
}
func (r *recorder) Traj(q TrajRequest) (*TrajResponse, error) { r.got = q; return &TrajResponse{}, nil }
func (r *recorder) Dwell(q DwellRequest) (*DwellResponse, error) {
	r.got = q
	return &DwellResponse{}, nil
}
func (r *recorder) Info(trace bool) (*InfoResponse, error) {
	r.got = infoRequest(trace)
	return &InfoResponse{}, nil
}
func (r *recorder) Watch(q WatchRequest) (*WatchResponse, error) {
	r.got = q
	return &WatchResponse{}, nil
}

// comparableRequest is a request type the tests can compare with ==.
type comparableRequest[Q any] interface {
	comparable
	request[Q]
}

// checkRoundTrip encodes q as the Client does, runs the encoding through
// the named operator's decoder as the server does, and requires the
// operator's Querier method to receive q — bit for bit, -0 included.
func checkRoundTrip[Q comparableRequest[Q]](t *testing.T, name string, q Q) {
	t.Helper()
	v := encode(q)
	var rec recorder
	if _, err := OperatorNamed(name).Run(&rec, v, v.Get("trace") == "1"); err != nil {
		t.Errorf("%s %+v: encoded as %q, decoding fails: %v", name, q, v.Encode(), err)
		return
	}
	got, ok := rec.got.(Q)
	if !ok || got != q || encode(got).Encode() != v.Encode() {
		t.Errorf("%s: %+v encoded as %q decodes to %+v", name, q, v.Encode(), rec.got)
	}
}

// TestRequestParamsRoundTrip pins the one parameter declaration per
// request: for every operator, decode(encode(q)) == q at the awkward
// values, and vitaquery's flag set left at its defaults decodes exactly as
// an empty query does.
func TestRequestParamsRoundTrip(t *testing.T) {
	negZero, sub := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	odd := geom.BBox{Min: geom.Pt(negZero, sub), Max: geom.Pt(1e18, 0.30000000000000004)}
	for _, q := range []RangeRequest{
		{Floor: -1, Box: odd, T0: negZero, T1: 1e18},
		{Floor: -7, Box: geom.BBox{Max: geom.Pt(-sub, math.MaxFloat64)}, T0: sub, T1: -1e-300, Trace: true},
	} {
		checkRoundTrip(t, "range", q)
	}
	for _, q := range []KNNRequest{
		{Floor: 0, At: geom.Pt(negZero, 2.2250738585072014e-308), T: 1e18, K: 0},
		{Floor: -2, At: geom.Pt(10.7, 7.500000000000001), T: negZero, K: -3, Trace: true},
		{Floor: math.MaxInt, At: geom.Pt(sub, -sub), T: sub, K: math.MinInt},
	} {
		checkRoundTrip(t, "knn", q)
	}
	for _, q := range []DensityRequest{{T: negZero}, {T: sub, Trace: true}, {T: 1e18}} {
		checkRoundTrip(t, "density", q)
	}
	for _, q := range []TrajRequest{{Obj: -1, T0: negZero, T1: 1e18}, {Obj: 5, T0: sub, T1: -sub, Trace: true}} {
		checkRoundTrip(t, "traj", q)
	}
	for _, q := range []DwellRequest{{Floor: -1, T0: negZero, T1: 1e18}, {Floor: -3, T0: -1e18, T1: sub, Trace: true}} {
		checkRoundTrip(t, "dwell", q)
	}
	for _, q := range []infoRequest{false, true} {
		checkRoundTrip(t, "info", q)
	}
	for _, q := range []WatchRequest{
		{Floor: -1, Box: odd},
		{Floor: -5, Box: geom.BBox{Min: geom.Pt(-sub, negZero), Max: geom.Pt(sub, -1e-300)}, Trace: true},
		{Floor: math.MinInt, Box: geom.BBox{Min: geom.Pt(negZero, negZero)}},
	} {
		checkRoundTrip(t, "watch", q)
	}

	for _, op := range Operators {
		fs := flag.NewFlagSet(op.Name, flag.ContinueOnError)
		params := op.Flags(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		var fromFlags, fromEmpty recorder
		_, errFlags := op.Run(&fromFlags, params, false)
		_, errEmpty := op.Run(&fromEmpty, url.Values{}, false)
		if fmt.Sprint(errFlags) != fmt.Sprint(errEmpty) || fromFlags.got != fromEmpty.got {
			t.Errorf("%s: the default flags decode to %+v (error %v), an empty query to %+v (error %v)",
				op.Name, fromFlags.got, errFlags, fromEmpty.got, errEmpty)
		}
	}
}

// FuzzRequestParams feeds arbitrary query strings to every operator's
// decoder: decoding never panics, and whatever decodes round-trips.
func FuzzRequestParams(f *testing.F) {
	for _, seed := range []string{
		"floor=-1&box=0,0,20,15&t0=0&t1=120",
		"floor=0&at=10,7.5&t=60&k=5",
		"t=-0&trace=1",
		"obj=3&t0=5e-324&t1=1e18",
		"box=+1,%202,0x1p-3,4&k=-0",
		"floor=x&t0=NaN&at=1,Inf",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // what r.URL.Query() hands the server
		trace := v.Get("trace") == "1"
		fuzzRoundTrip[RangeRequest](t, "range", v, trace)
		fuzzRoundTrip[KNNRequest](t, "knn", v, trace)
		fuzzRoundTrip[DensityRequest](t, "density", v, trace)
		fuzzRoundTrip[TrajRequest](t, "traj", v, trace)
		fuzzRoundTrip[DwellRequest](t, "dwell", v, trace)
		fuzzRoundTrip[infoRequest](t, "info", v, trace)
		fuzzRoundTrip[WatchRequest](t, "watch", v, trace)
	})
}

func fuzzRoundTrip[Q comparableRequest[Q]](t *testing.T, name string, v url.Values, trace bool) {
	var rec recorder
	if _, err := OperatorNamed(name).Run(&rec, v, trace); err == nil {
		checkRoundTrip(t, name, rec.got.(Q))
	}
}
