package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"vita/internal/obs"
)

// span is one recorded interval: which layer, when, caused by which span,
// on behalf of which request. Times are nanoseconds since the recorder's
// epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rows    int    `json:"rows,omitempty"`
}

// recorder keeps the bench's spans in memory until the run ends. The bench
// records its own spans around calls into each layer; the span trees the
// system returns for Trace:true requests are grafted under them. Traced
// passes run on one goroutine, so a recorder is not safe for concurrent use.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, request int) int {
	now := time.Since(r.epoch).Nanoseconds()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNs: now, EndNs: now})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) { r.spans[id].EndNs = time.Since(r.epoch).Nanoseconds() }

// add records a span whose interval the caller measured itself.
func (r *recorder) add(name string, parent, request int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// graft adds an obs.Span tree under parent. obs spans carry an inclusive
// duration but no start; each is laid at its parent's start, which keeps
// durations (all that self time needs) exact.
func (r *recorder) graft(t *obs.Span, parent, request int) {
	r.graftAt(t, parent, request, r.spans[parent].StartNs)
}

func (r *recorder) graftAt(t *obs.Span, parent, request int, start int64) {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: t.Op, Detail: t.Detail,
		StartNs: start, EndNs: start + t.WallNanos, Rows: t.Rows,
	})
	for _, c := range t.Children {
		r.graftAt(c, id, request, start)
	}
}

// selfTimes returns each span's duration minus its direct children's. Over
// any subtree the self times sum to the root span's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// layerOf maps a span name to the per-layer metric its self time feeds. A
// name nobody mapped lands in plan.other_ms: never dropped, and a non-zero
// value there says the ledger needs a new row.
func layerOf(name string) string {
	switch name {
	case "Scan":
		return "plan.scan_ms"
	case "Filter", "Filter+Project", "Project":
		return "plan.filter_ms"
	case "OrderBy":
		return "plan.orderby_ms"
	case "Derive":
		return "plan.derive_ms"
	case "Aggregate":
		return "plan.aggregate_ms"
	case "IndexBuild":
		return "query.index_build_ms"
	case "IndexProbe":
		return "query.index_probe_ms"
	case "Range", "KNN", "Density", "Traj", "Dwell":
		return "serve.exec_self_ms"
	case spanExec:
		return "" // the bench's own wrapper around Dataset.<op>; its self time is call overhead
	default:
		return "plan.other_ms"
	}
}

// spanExec names the bench's span around one traced Dataset call.
const spanExec = "bench.exec"

// foldSelf sums self time by layer metric, in nanoseconds.
func foldSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, ns := range selfTimes(spans) {
		if key := layerOf(spans[i].Name); key != "" {
			out[key] += ns
		}
	}
	return out
}

// write dumps the spans as bench/out/trace-<workload>.json.
func (r *recorder) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
