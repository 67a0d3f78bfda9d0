package serve

import (
	"fmt"
	"io"
	"sort"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/obs"
	"vita/internal/trajectory"
)

// Request/response types for the query operators: the single source of
// truth for Dataset (local execution), the HTTP API (vitaserve), Client
// (vitaquery -server) and vitaquery's flags, each request's params method
// declaring its query parameters once for all of them. The WriteText
// formatters render exactly what vitaquery has always printed, so local and
// served output are byte-identical by construction — all paths marshal
// through the same structs and the same format strings, and float64 values
// survive the JSON round trip exactly (encoding/json emits shortest
// round-trip representations). That holds for the row body too (wire.go):
// its envelope is the same struct as JSON with the row slice nil, and its
// rows come back through VTB, which is lossless.

// Stats describes how much work one request cost: the underlying scan
// (blocks pruned/decoded, rows) and block-cache effectiveness. Every dataset
// is served from block segments behind one cursor, so every field means the
// same thing on every dataset and at every cache budget.
type Stats struct {
	// Format is the dataset's storage format ("vtb" or "csv").
	Format string `json:"format"`
	// Scan reports zone-map pruning and row counts. On a CSV dataset the
	// blocks are those its rows were re-encoded into at open.
	Scan colstore.ScanStats `json:"scan"`
	// CacheHits and CacheMisses count decoded-block cache lookups for this
	// request; misses equal blocks decoded.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// IndexCached is always false.
	//
	// Deprecated: there is no index cache; the key stays on the wire only so
	// response bodies keep their shape.
	IndexCached bool `json:"index_cached"`
	// PeakDecodedBytes is the most decoded bytes one window of the request's
	// scan produced (the largest such window across segments when the scan
	// merges several), measured before filtering; 0 when every block was a
	// cache hit. It is the observable form of the bounded-memory claim:
	// however wide the request and whatever the cache keeps, the scan pins
	// one window of blocks per cursor — 2 x GOMAXPROCS blocks.
	PeakDecodedBytes int64 `json:"peak_decoded_bytes,omitempty"`
	// Segments is how many live segments the request's scan fanned across
	// (segmented datasets only; omitted for single-file and CSV).
	Segments int `json:"segments,omitempty"`
}

// ResponseMeta closes every response (its last, embedded field): what the
// request cost, and the span tree when the request asked for one.
type ResponseMeta struct {
	Stats Stats     `json:"stats"`
	Trace *obs.Span `json:"trace,omitempty"`
}

// Meta returns the response's Stats and Trace.
func (m *ResponseMeta) Meta() *ResponseMeta { return m }

// RangeRequest asks for every sample inside box on floor during [T0, T1].
// Floor -1 searches all floors.
type RangeRequest struct {
	Floor int       `json:"floor"`
	Box   geom.BBox `json:"box"`
	T0    float64   `json:"t0"`
	T1    float64   `json:"t1"`
	// Trace asks for a per-operator span tree in the response. Not part of
	// the query identity, so excluded from the wire encoding of the query
	// echo (the HTTP server reads it from ?trace=1).
	Trace bool `json:"-"`
}

func (q RangeRequest) params(f paramSet) (RangeRequest, error) {
	f.int(&q.Floor, "floor", -1, "floor to search (-1 = all)")
	f.box(&q.Box, "box", "spatial box `x0,y0,x1,y1` (required)")
	f.float(&q.T0, "t0", 0, "window start (s)")
	f.float(&q.T1, "t1", 0, "window end (s)")
	f.trace(&q.Trace)
	return q, f.err
}

// RangeResponse carries the matching samples ordered by (object, time).
type RangeResponse struct {
	Query   RangeRequest        `json:"query"`
	Hits    []trajectory.Sample `json:"hits"`
	Objects []int               `json:"objects"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery range` prints it.
func (r *RangeResponse) WriteText(w io.Writer) error {
	for _, s := range r.Hits {
		if _, err := fmt.Fprintf(w, "obj %-4d t %8.2f  %s\n", s.ObjID, s.T, s.Loc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d samples, %d distinct objects in %v × [%g, %g]\n",
		len(r.Hits), len(r.Objects), r.Query.Box, r.Query.T0, r.Query.T1)
	return err
}

// KNNRequest asks for the K objects on Floor nearest to At at instant T.
type KNNRequest struct {
	Floor int        `json:"floor"`
	At    geom.Point `json:"at"`
	T     float64    `json:"t"`
	K     int        `json:"k"`
	Trace bool       `json:"-"`
}

func (q KNNRequest) params(f paramSet) (KNNRequest, error) {
	f.int(&q.Floor, "floor", 0, "floor to search")
	f.point(&q.At, "at", "query point `x,y` (required)")
	f.float(&q.T, "t", 0, "query instant (s)")
	f.int(&q.K, "k", 5, "number of neighbors")
	f.trace(&q.Trace)
	return q, f.err
}

// Neighbor is one kNN result: an object, its (possibly interpolated) location
// at the query instant, and its distance to the query point.
type Neighbor struct {
	ObjID int
	Loc   model.Location
	Dist  float64
}

// KNNResponse carries the neighbors, nearest first.
type KNNResponse struct {
	Query     KNNRequest `json:"query"`
	Neighbors []Neighbor `json:"neighbors"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery knn` prints it.
func (r *KNNResponse) WriteText(w io.Writer) error {
	for i, n := range r.Neighbors {
		if _, err := fmt.Fprintf(w, "#%d  obj %-4d dist %6.2fm  %s\n", i+1, n.ObjID, n.Dist, n.Loc); err != nil {
			return err
		}
	}
	return nil
}

// DensityRequest asks for the per-partition object counts at instant T.
type DensityRequest struct {
	T     float64 `json:"t"`
	Trace bool    `json:"-"`
}

func (q DensityRequest) params(f paramSet) (DensityRequest, error) {
	f.float(&q.T, "t", 0, "snapshot instant (s)")
	f.trace(&q.Trace)
	return q, f.err
}

// DensityResponse carries the snapshot density per partition.
type DensityResponse struct {
	Query  DensityRequest `json:"query"`
	Counts map[string]int `json:"counts"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery density` prints it:
// partitions by descending count (name-ascending ties), then a summary.
func (r *DensityResponse) WriteText(w io.Writer) error {
	parts := make([]string, 0, len(r.Counts))
	for p := range r.Counts {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool {
		if r.Counts[parts[i]] != r.Counts[parts[j]] {
			return r.Counts[parts[i]] > r.Counts[parts[j]]
		}
		return parts[i] < parts[j]
	})
	total := 0
	for _, p := range parts {
		if _, err := fmt.Fprintf(w, "%-16s %d\n", p, r.Counts[p]); err != nil {
			return err
		}
		total += r.Counts[p]
	}
	_, err := fmt.Fprintf(w, "%d objects in %d partitions at t=%g\n", total, len(parts), r.Query.T)
	return err
}

// TrajRequest asks for object Obj's samples during [T0, T1].
type TrajRequest struct {
	Obj   int     `json:"obj"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Trace bool    `json:"-"`
}

func (q TrajRequest) params(f paramSet) (TrajRequest, error) {
	f.int(&q.Obj, "obj", 0, "object ID")
	f.float(&q.T0, "t0", 0, "window start (s)")
	f.float(&q.T1, "t1", 1e18, "window end (s)")
	f.trace(&q.Trace)
	return q, f.err
}

// TrajResponse carries the object's samples in time order.
type TrajResponse struct {
	Query   TrajRequest         `json:"query"`
	Samples []trajectory.Sample `json:"samples"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery traj` prints it.
func (r *TrajResponse) WriteText(w io.Writer) error {
	for _, s := range r.Samples {
		if _, err := fmt.Fprintf(w, "t %8.2f  %s\n", s.T, s.Loc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d samples for object %d\n", len(r.Samples), r.Query.Obj)
	return err
}

// DwellRequest asks how long objects dwelled in each partition during
// [T0, T1]. Floor -1 includes all floors.
type DwellRequest struct {
	Floor int     `json:"floor"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Trace bool    `json:"-"`
}

func (q DwellRequest) params(f paramSet) (DwellRequest, error) {
	f.int(&q.Floor, "floor", -1, "floor to analyze (-1 = all)")
	f.float(&q.T0, "t0", 0, "window start (s)")
	f.float(&q.T1, "t1", 1e18, "window end (s)")
	f.trace(&q.Trace)
	return q, f.err
}

// DwellRoom is one partition's dwell summary.
type DwellRoom struct {
	Partition string `json:"partition"`
	// Seconds is the total dwell time accumulated across all objects:
	// consecutive same-object samples in the partition no further apart
	// than the dataset's MaxGap contribute their gap.
	Seconds float64 `json:"seconds"`
	// Objects is how many distinct objects were observed in the partition.
	Objects int `json:"objects"`
}

// DwellResponse carries the rooms, longest total dwell first.
type DwellResponse struct {
	Query DwellRequest `json:"query"`
	Rooms []DwellRoom  `json:"rooms"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery dwell` prints it.
func (r *DwellResponse) WriteText(w io.Writer) error {
	var total float64
	for _, room := range r.Rooms {
		if _, err := fmt.Fprintf(w, "%-16s %10.1f s  %d objects\n", room.Partition, room.Seconds, room.Objects); err != nil {
			return err
		}
		total += room.Seconds
	}
	_, err := fmt.Fprintf(w, "%g s total dwell across %d partitions in [%g, %g]\n",
		total, len(r.Rooms), r.Query.T0, r.Query.T1)
	return err
}

// WatchRequest is a standing range query over floor × box (Floor -1 watches
// all floors), replayed over every row of the dataset.
type WatchRequest struct {
	Floor int       `json:"floor"`
	Box   geom.BBox `json:"box"`
	Trace bool      `json:"-"`
}

func (q WatchRequest) params(f paramSet) (WatchRequest, error) {
	f.int(&q.Floor, "floor", -1, "floor to watch (-1 = all)")
	f.box(&q.Box, "box", "spatial box `x0,y0,x1,y1` (required)")
	f.trace(&q.Trace)
	return q, f.err
}

// WatchEvent is one boundary crossing: Kind is "enter" or "exit", and Sample
// is the row that crossed.
type WatchEvent struct {
	Kind   string            `json:"kind"`
	Sample trajectory.Sample `json:"sample"`
}

// WatchResponse carries the crossings in (time, object) order and the
// objects still inside at the end, sorted.
type WatchResponse struct {
	Query  WatchRequest `json:"query"`
	Events []WatchEvent `json:"events"`
	Inside []int        `json:"inside"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery watch` prints it.
func (r *WatchResponse) WriteText(w io.Writer) error {
	for _, e := range r.Events {
		if _, err := fmt.Fprintf(w, "t %8.2f  %-5s obj %-4d %s\n", e.Sample.T, e.Kind, e.Sample.ObjID, e.Sample.Loc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d enter/exit events; %d objects inside at end of replay\n", len(r.Events), len(r.Inside))
	return err
}

// infoRequest is info's request: no parameter, only the trace ask.
type infoRequest bool

func (q infoRequest) params(f paramSet) (infoRequest, error) {
	f.trace((*bool)(&q))
	return q, f.err
}

// InfoResponse summarizes the dataset.
type InfoResponse struct {
	Samples int     `json:"samples"`
	Objects int     `json:"objects"`
	Floors  []int   `json:"floors"`
	T0      float64 `json:"t0"`
	T1      float64 `json:"t1"`
	// Bounds is the tight bounding box over every sample location. It is
	// carried on the JSON surface only (WriteText is frozen for CLI output
	// parity); workload generators use it to draw spatial parameters that
	// actually hit the data.
	Bounds geom.BBox `json:"bounds"`
	// Empty reports a dataset with no samples (T0/T1 then meaningless).
	Empty bool `json:"empty"`
	ResponseMeta
}

// WriteText renders the response exactly as `vitaquery info` prints it.
func (r *InfoResponse) WriteText(w io.Writer) error {
	if r.Empty {
		_, err := fmt.Fprintln(w, "empty dataset")
		return err
	}
	if _, err := fmt.Fprintf(w, "samples   %d\n", r.Samples); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "objects   %d\n", r.Objects); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "floors    %v\n", r.Floors); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "time span [%g, %g] s\n", r.T0, r.T1)
	return err
}
