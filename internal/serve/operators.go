package serve

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"
	"strings"

	"vita/internal/geom"
	"vita/internal/trajectory"
)

// Querier answers the query operators: Dataset in-process, Client through a
// vitaserve daemon, with the same types and so the same answers.
type Querier interface {
	Range(RangeRequest) (*RangeResponse, error)
	KNN(KNNRequest) (*KNNResponse, error)
	Density(DensityRequest) (*DensityResponse, error)
	Traj(TrajRequest) (*TrajResponse, error)
	Dwell(DwellRequest) (*DwellResponse, error)
	Info(trace bool) (*InfoResponse, error)
	Watch(WatchRequest) (*WatchResponse, error)
}

var (
	_ Querier = (*Dataset)(nil)
	_ Querier = (*Client)(nil)
)

// Response is any operator's answer.
type Response interface {
	Meta() *ResponseMeta
	WriteText(io.Writer) error
}

// An Operator is one query operator on every surface: the route /v1/<Name>,
// the vitaquery subcommand and the vitaload mix key <Name>.
type Operator struct {
	Name string
	// Run decodes the request from v exactly as the server does — the same
	// defaults, the same error for the first bad parameter — and executes it
	// on q, asking for the span tree when trace is set.
	Run   func(q Querier, v url.Values, trace bool) (Response, error)
	path  string
	flags func(paramSet)
	// rows is where a response keeps its sample rows: nil but for the
	// operators that answer with the row body.
	rows func(Response) *[]trajectory.Sample
}

// Operators is every query operator. Adding one takes a Dataset method, a
// request/response pair and a line here.
var Operators = []Operator{
	op("range", Querier.Range, func(r *RangeResponse) *[]trajectory.Sample { return &r.Hits }),
	op("knn", Querier.KNN, nil),
	op("density", Querier.Density, nil),
	op("traj", Querier.Traj, func(r *TrajResponse) *[]trajectory.Sample { return &r.Samples }),
	op("dwell", Querier.Dwell, nil),
	op("info", func(q Querier, r infoRequest) (*InfoResponse, error) { return q.Info(bool(r)) }, nil),
	op("watch", Querier.Watch, nil),
}

// OperatorNamed returns the operator called name, or nil.
func OperatorNamed(name string) *Operator {
	for i := range Operators {
		if Operators[i].Name == name {
			return &Operators[i]
		}
	}
	return nil
}

func op[Q request[Q], R Response](name string, call func(Querier, Q) (R, error), rows func(R) *[]trajectory.Sample) Operator {
	o := Operator{
		Name: name,
		Run: func(q Querier, v url.Values, trace bool) (Response, error) {
			var req Q
			req, err := req.params(paramSet{v: v, traced: trace})
			if err != nil {
				return nil, badParam{err}
			}
			return call(q, req)
		},
		path:  "/v1/" + name,
		flags: func(f paramSet) { var q Q; q.params(f) },
		rows:  func(Response) *[]trajectory.Sample { return nil },
	}
	if rows != nil {
		o.rows = func(r Response) *[]trajectory.Sample { return rows(r.(R)) }
	}
	return o
}

// Flags registers the operator's parameters on fs and returns the query
// they fill in: every parameter the command line did not set holds its
// default, as text.
func (o *Operator) Flags(fs *flag.FlagSet) url.Values {
	v := url.Values{}
	o.flags(paramSet{v: v, flags: fs})
	return v
}

// request is a request type. Its params method declares each query
// parameter — name, default, help — to f, in decode order, and returns the
// request as f leaves it, with the first parameter that failed to decode.
// It goes by value so that decoding allocates nothing.
type request[Q any] interface {
	params(f paramSet) (Q, error)
}

// encode renders q as the query parameters that decode back to q.
func encode[Q request[Q]](q Q) url.Values {
	v := url.Values{}
	q.params(paramSet{v: v, encode: true})
	return v
}

// badParam is a request that failed to decode: the caller's fault, a 400.
type badParam struct{ error }

// paramSet is what a request declares its parameters to. It decodes v into
// the request (by default), encodes the request into v, or registers each
// parameter on flags, the text it is given (or its default's) kept in v.
type paramSet struct {
	v      url.Values
	encode bool
	flags  *flag.FlagSet
	traced bool // decode: the request's Trace
	err    error
}

func (f *paramSet) int(p *int, name string, def int, help string) {
	param(f, p, name, &def, help, strconv.Itoa, func(s string) (n int, err error) {
		if n, err = strconv.Atoi(s); err != nil {
			err = fmt.Errorf("bad %s %q", name, s)
		}
		return n, err
	})
}

func (f *paramSet) float(p *float64, name string, def float64, help string) {
	param(f, p, name, &def, help, formatFloat, func(s string) (float64, error) {
		x, ok := parseFinite(s)
		if !ok {
			return 0, fmt.Errorf("bad %s %q, want a finite number", name, s)
		}
		return x, nil
	})
}

// box and point are required: they have no default.
func (f *paramSet) box(p *geom.BBox, name, help string) {
	param(f, p, name, nil, help, FormatBox, ParseBox)
}

func (f *paramSet) point(p *geom.Point, name, help string) {
	param(f, p, name, nil, help, FormatPoint, ParsePoint)
}

// trace binds Trace to the trace=1 ask; decoding takes the caller's
// decision (vitaquery's -trace, the server's trace=1 or slow-query log).
func (f *paramSet) trace(p *bool) {
	if f.encode && *p {
		f.v.Set("trace", "1")
	} else if !f.encode && f.flags == nil {
		*p = f.traced
	}
}

func param[T any](f *paramSet, p *T, name string, def *T, help string, format func(T) string, parse func(string) (T, error)) {
	switch {
	case f.flags != nil:
		v := f.v
		if def != nil {
			v.Set(name, format(*def))
			help += " (default " + v.Get(name) + ")"
		}
		f.flags.Func(name, help, func(s string) error { v.Set(name, s); return nil })
	case f.encode:
		f.v.Set(name, format(*p))
	case f.err != nil:
	case f.v.Get(name) != "" || def == nil:
		*p, f.err = parse(f.v.Get(name))
	default:
		*p = *def
	}
}

// parseFinite is strconv.ParseFloat minus NaN and ±Inf, which it accepts but
// no query parameter means and the JSON query echo cannot carry.
func parseFinite(v string) (float64, bool) {
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// ParseBox parses "x0,y0,x1,y1" — the wire and CLI encoding of a query box.
func ParseBox(s string) (geom.BBox, error) {
	var v [4]float64
	if !parseFloats(s, v[:]) {
		return geom.BBox{}, fmt.Errorf("bad box %q, want x0,y0,x1,y1", s)
	}
	return geom.BBox{Min: geom.Pt(v[0], v[1]), Max: geom.Pt(v[2], v[3])}, nil
}

// FormatBox renders a box for ParseBox, float64 round trips included.
func FormatBox(b geom.BBox) string {
	return formatFloats(b.Min.X, b.Min.Y, b.Max.X, b.Max.Y)
}

// ParsePoint parses "x,y" — the wire and CLI encoding of a query point.
func ParsePoint(s string) (geom.Point, error) {
	var v [2]float64
	if !parseFloats(s, v[:]) {
		return geom.Point{}, fmt.Errorf("bad point %q, want x,y", s)
	}
	return geom.Pt(v[0], v[1]), nil
}

// FormatPoint renders a point for ParsePoint, float64 round trips included.
func FormatPoint(p geom.Point) string {
	return formatFloats(p.X, p.Y)
}

// parseFloats fills out from exactly len(out) comma-separated finite numbers.
func parseFloats(s string, out []float64) bool {
	parts := strings.Split(s, ",")
	if len(parts) != len(out) {
		return false
	}
	for i, p := range parts {
		var ok bool
		if out[i], ok = parseFinite(strings.TrimSpace(p)); !ok {
			return false
		}
	}
	return true
}

func formatFloats(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, ",")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
