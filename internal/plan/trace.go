package plan

import (
	"fmt"
	"strings"
	"time"

	"vita/internal/colstore"
	"vita/internal/obs"
)

// traceOp wraps one physical operator and records its work onto a span:
// batches and rows produced, inclusive wall time (its own work plus
// everything below it, the EXPLAIN ANALYZE convention), and — for scan
// leaves — the cursor's pruning stats, captured at Close before the cursor
// is released. Only CompileTraced inserts traceOps; the untraced Compile
// path never sees them, so tracing costs nothing when it is off.
type traceOp struct {
	child Operator
	span  *obs.Span
	scan  bool
}

func newTraceOp(child Operator, span *obs.Span, scan bool) *traceOp {
	return &traceOp{child: child, span: span, scan: scan}
}

func (t *traceOp) Next() bool {
	start := time.Now()
	ok := t.child.Next()
	t.span.AddWall(time.Since(start))
	if ok {
		t.span.Batches++
		t.span.Rows += t.child.Batch().Len()
	}
	return ok
}

func (t *traceOp) Batch() *Batch             { return t.child.Batch() }
func (t *traceOp) Err() error                { return t.child.Err() }
func (t *traceOp) Stats() colstore.ScanStats { return t.child.Stats() }

func (t *traceOp) Close() error {
	start := time.Now()
	err := t.child.Close()
	t.span.AddWall(time.Since(start))
	if t.scan {
		st := t.child.Stats()
		t.span.BlocksTotal = st.BlocksTotal
		t.span.BlocksPruned = st.BlocksPruned
		t.span.BlocksScanned = st.BlocksScanned
		t.span.RowsScanned = st.RowsScanned
		t.span.RowsMatched = st.RowsMatched
	}
	return err
}

// predDetail summarizes a pushed-down scan predicate for the span's detail
// field ("t∈[540,600] floor=3"); empty when nothing was pushed.
func predDetail(p colstore.Predicate) string {
	var parts []string
	if p.HasTime {
		parts = append(parts, fmt.Sprintf("t∈[%g,%g]", p.T0, p.T1))
	}
	if p.HasFloor {
		parts = append(parts, fmt.Sprintf("floor=%d", p.Floor))
	}
	if p.HasBox {
		parts = append(parts, fmt.Sprintf("box=[%g,%g]×[%g,%g]", p.Box.Min.X, p.Box.Max.X, p.Box.Min.Y, p.Box.Max.Y))
	}
	if p.HasObj {
		parts = append(parts, fmt.Sprintf("obj=%d", p.Obj))
	}
	return strings.Join(parts, " ")
}

// colList renders a column list for span details ("partition,t").
func colList(cols []Col) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// sortKeyList renders OrderBy keys for span details ("obj asc,t desc").
func sortKeyList(keys []SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = k.Col.String() + " " + dir
	}
	return strings.Join(parts, ",")
}
