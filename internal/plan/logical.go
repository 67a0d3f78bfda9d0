package plan

import (
	"fmt"
	"slices"

	"vita/internal/colstore"
	"vita/internal/obs"
)

// nodeKind discriminates logical plan nodes.
type nodeKind int

const (
	nodeScan nodeKind = iota
	nodeFilter
	nodeTimeBucket
	nodeDerive
	nodeAggregate
	nodeOrderBy
	nodeLimit
	nodeSnapshotAt
)

var nodeKindNames = [...]string{"Scan", "Filter", "TimeBucket", "Derive", "Aggregate", "OrderBy", "Limit", "SnapshotAt"}

func (k nodeKind) String() string { return nodeKindNames[k] }

// Plan is a logical operator tree, built fluently from NewScan and compiled
// into a physical Operator chain with Compile. Plans are immutable once
// built; each builder method returns a new node wrapping its receiver.
type Plan struct {
	kind   nodeKind
	input  *Plan      // nil for Scan
	src    Source     // Scan
	preds  []Pred     // Filter
	cols   []Col      // Aggregate group-by
	width  float64    // TimeBucket
	derive DeriveFunc // Derive
	aggs   []AggSpec  // Aggregate
	keys   []SortKey  // OrderBy
	n      int        // Limit
	at     float64    // SnapshotAt instant
	maxGap float64    // SnapshotAt interpolation bound
}

// NewScan starts a plan at a leaf Source.
func NewScan(src Source) *Plan { return &Plan{kind: nodeScan, src: src} }

// Filter keeps rows matching every predicate (conjunction). Structured
// predicates adjacent to the scan push down into block pruning at Compile.
func (p *Plan) Filter(preds ...Pred) *Plan {
	return &Plan{kind: nodeFilter, input: p, preds: preds}
}

// TimeBucket replaces each row's timestamp with the start of its
// width-second bucket (floor(T/width)*width) — the usual prelude to
// time-grouped aggregation.
func (p *Plan) TimeBucket(width float64) *Plan {
	return &Plan{kind: nodeTimeBucket, input: p, width: width}
}

// Derive computes the Val column batch-by-batch with fn (see DeriveFunc).
func (p *Plan) Derive(fn DeriveFunc) *Plan {
	return &Plan{kind: nodeDerive, input: p, derive: fn}
}

// Aggregate hash-groups rows by the groupBy columns and reduces each group
// with the given aggregates. Keys are equal as OrderBy calls them equal:
// ColObjID and ColFloor as integers, strings byte for byte, floats
// numerically with -0 equal to +0, and every NaN one key. Groups are emitted
// in ascending key order as OrderBy(Asc(...)) sorts them — a NaN group last —
// so output is deterministic.
func (p *Plan) Aggregate(groupBy []Col, aggs ...AggSpec) *Plan {
	return &Plan{kind: nodeAggregate, input: p, cols: groupBy, aggs: aggs}
}

// OrderBy sorts all rows by the given keys, first key most significant
// (blocking; stable: rows equal on every key keep their input order).
// ColObjID and ColFloor compare as integers, ColBuilding and ColPartition
// lexicographically, the float columns numerically with -0 equal to +0. A NaN
// sorts after every number under Asc and before every number under Desc, and
// NaNs tie with each other.
func (p *Plan) OrderBy(keys ...SortKey) *Plan {
	return &Plan{kind: nodeOrderBy, input: p, keys: keys}
}

// Limit stops after n rows.
func (p *Plan) Limit(n int) *Plan {
	return &Plan{kind: nodeLimit, input: p, n: n}
}

// SnapshotAt reduces the rows to one per object: the object's location at
// instant t, interpolated between its last row before t and its first at or
// after it by trajectory.InterpolateAt (blocking). Objects with no row within
// maxGap seconds of t are dropped; the rest come out in ascending object
// order with T set to t. Rows outside [t-maxGap, t+maxGap] cannot change the
// answer, so filter the scan to that window first.
func (p *Plan) SnapshotAt(t, maxGap float64) *Plan {
	return &Plan{kind: nodeSnapshotAt, input: p, at: t, maxGap: maxGap}
}

// By is sugar for an Aggregate group-by column list.
func By(cols ...Col) []Col { return cols }

// Compiled is an executable plan: the physical operator tree plus what the
// planner pushed into its scan. It satisfies Operator; drive it with
// Next/Batch or hand it to CollectSamples/CollectRows.
type Compiled struct {
	root Operator
	// scanPred is the block predicate pushed into the Scan leaf.
	scanPred colstore.Predicate
	// traced plans additionally carry a span tree mirroring the physical
	// operator tree; see CompileTraced.
	traced bool
	span   *obs.Span
}

// Trace returns the plan's span tree, or nil when compiled without tracing.
// Spans fill in as the plan executes; read them after Close for final
// counts (scan pruning stats are captured at Close).
func (c *Compiled) Trace() *obs.Span { return c.span }

// ScanPred returns the block predicate the planner pushed into the scan —
// what tests and benchmarks read to check that a filter reached the zone
// maps.
func (c *Compiled) ScanPred() colstore.Predicate { return c.scanPred }

func (c *Compiled) Next() bool                { return c.root.Next() }
func (c *Compiled) Batch() *Batch             { return c.root.Batch() }
func (c *Compiled) Err() error                { return c.root.Err() }
func (c *Compiled) Stats() colstore.ScanStats { return c.root.Stats() }
func (c *Compiled) Close() error              { return c.root.Close() }

// Compile runs the planner and returns the executable plan. The planner's
// rewrites, in order:
//
//  1. adjacent Filter nodes merge into one conjunction;
//  2. every structured conjunct in the filter chain directly above a Scan
//     moves into the scan's colstore.Predicate (exact pushdown — time
//     windows intersect, floor/box/object claim their slot), so zone maps
//     prune blocks before decode; what does not push down stays one
//     residual Filter.
//
// Pushdown is semantics-preserving by construction: Pred.narrow and
// colstore.Predicate.MatchTrajectory agree on every structured kind, so the
// same rows survive whether a conjunct runs in the scan or as a residual.
func (p *Plan) Compile() (*Compiled, error) { return p.compileWith(false) }

// CompileTraced compiles like Compile but wraps every physical operator in a
// span recorder (see internal/obs.Span): per-operator batches, rows,
// inclusive wall time, and — on scan leaves — block-pruning stats. The
// untraced Compile path shares none of this machinery, so tracing is strictly
// pay-for-what-you-use.
func (p *Plan) CompileTraced() (*Compiled, error) { return p.compileWith(true) }

func (p *Plan) compileWith(traced bool) (*Compiled, error) {
	c := &Compiled{traced: traced}
	root, span, err := c.compile(p)
	if err != nil {
		return nil, err
	}
	c.root = root
	c.span = span
	return c, nil
}

// compile lowers the plan's chain to a physical operator, recording the scan
// predicate on c. When tracing, it also returns the chain's root span (nil
// otherwise).
func (c *Compiled) compile(p *Plan) (Operator, *obs.Span, error) {
	// span tracks the span of the chain's current top operator; trace wraps
	// a freshly lowered operator and adopts the previous top as its child.
	var span *obs.Span
	trace := func(op Operator, name, detail string, isScan bool) Operator {
		if !c.traced {
			return op
		}
		sp := &obs.Span{Op: name, Detail: detail}
		if span != nil {
			sp.Children = append(sp.Children, span)
		}
		span = sp
		return newTraceOp(op, sp, isScan)
	}
	// Flatten the linear chain leaf-first.
	var chain []*Plan
	for n := p; n != nil; n = n.input {
		chain = append(chain, n)
	}
	slices.Reverse(chain)
	if chain[0].kind != nodeScan {
		return nil, nil, fmt.Errorf("plan: chain must start at a Scan, got %s", chain[0].kind)
	}

	// Merge the filter chain sitting directly on the scan and push every
	// structured conjunct into the scan predicate.
	var pred colstore.Predicate
	var residual []Pred
	i := 1
	for ; i < len(chain) && chain[i].kind == nodeFilter; i++ {
		for _, pr := range chain[i].preds {
			if !pr.pushInto(&pred) {
				residual = append(residual, pr)
			}
		}
	}
	c.scanPred = pred
	op := trace(newScanOp(chain[0].src, pred), "Scan", predDetail(pred), true)
	if len(residual) > 0 { // what did not push down stays one Filter
		i--
		chain[i] = &Plan{kind: nodeFilter, preds: residual}
	}

	// Lower the rest of the chain 1:1.
	for ; i < len(chain); i++ {
		n := chain[i]
		switch n.kind {
		case nodeFilter:
			op = trace(newFilterOp(op, n.preds), "Filter", fmt.Sprintf("%d residual pred(s)", len(n.preds)), false)
		case nodeTimeBucket:
			if n.width <= 0 {
				return nil, nil, fmt.Errorf("plan: TimeBucket width must be positive, got %g", n.width)
			}
			op = trace(newTimeBucketOp(op, n.width), "TimeBucket", fmt.Sprintf("width=%gs", n.width), false)
		case nodeDerive:
			op = trace(newDeriveOp(op, n.derive), "Derive", "", false)
		case nodeAggregate:
			ag, err := newHashAggOp(op, n.cols, n.aggs)
			if err != nil {
				return nil, nil, err
			}
			op = trace(ag, "Aggregate", fmt.Sprintf("%d agg(s) by %s", len(n.aggs), colList(n.cols)), false)
		case nodeOrderBy:
			if len(n.keys) == 0 {
				return nil, nil, fmt.Errorf("plan: OrderBy needs at least one key")
			}
			op = trace(newOrderByOp(op, n.keys), "OrderBy", sortKeyList(n.keys), false)
		case nodeLimit:
			if n.n < 0 {
				return nil, nil, fmt.Errorf("plan: Limit must be non-negative, got %d", n.n)
			}
			op = trace(newLimitOp(op, n.n), "Limit", fmt.Sprintf("n=%d", n.n), false)
		case nodeSnapshotAt:
			op = trace(newSnapshotAtOp(op, n.at, n.maxGap), "SnapshotAt", fmt.Sprintf("t=%g maxgap=%gs", n.at, n.maxGap), false)
		default:
			return nil, nil, fmt.Errorf("plan: unexpected %s mid-chain", n.kind)
		}
	}
	return op, span, nil
}
