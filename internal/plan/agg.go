package plan

import (
	"fmt"
	"slices"
)

// aggFn discriminates the reduction functions.
type aggFn int

const (
	aggCount aggFn = iota
	aggSum
	aggMin
	aggMax
	aggAvg
)

var aggFnNames = [...]string{"count", "sum", "min", "max", "avg"}

func (f aggFn) String() string { return aggFnNames[f] }

// AggSpec is one aggregate of an Aggregate node: reduce the src column with
// fn and write the result into the dst column of the group's output row.
// Build specs with CountInto, Sum, Min, Max, or Avg.
type AggSpec struct {
	fn  aggFn
	src Col
	dst Col
}

// CountInto counts the rows of each group into dst. Counting the output of
// a finer-grained Aggregate gives distinct counts — e.g. grouping by
// (partition, object) then by partition with CountInto(ColObjID) yields
// distinct objects per partition.
func CountInto(dst Col) AggSpec { return AggSpec{fn: aggCount, dst: dst} }

// Sum sums the numeric src column into dst.
func Sum(src, dst Col) AggSpec { return AggSpec{fn: aggSum, src: src, dst: dst} }

// Min keeps the minimum of the numeric src column in dst (0 for empty input).
func Min(src, dst Col) AggSpec { return AggSpec{fn: aggMin, src: src, dst: dst} }

// Max keeps the maximum of the numeric src column in dst (0 for empty input).
func Max(src, dst Col) AggSpec { return AggSpec{fn: aggMax, src: src, dst: dst} }

// Avg averages the numeric src column into dst (0 for empty input).
func Avg(src, dst Col) AggSpec { return AggSpec{fn: aggAvg, src: src, dst: dst} }

// aggState is one aggregate's accumulator within one group.
type aggState struct {
	count    int64
	sum      float64
	min, max float64
	seen     bool
}

func (st *aggState) add(v float64) {
	st.count++
	st.sum += v
	if !st.seen || v < st.min {
		st.min = v
	}
	if !st.seen || v > st.max {
		st.max = v
	}
	st.seen = true
}

func (st *aggState) result(fn aggFn) float64 {
	avg := 0.0
	if st.count > 0 {
		avg = st.sum / float64(st.count)
	}
	return [...]float64{aggCount: float64(st.count), aggSum: st.sum, aggMin: st.min, aggMax: st.max, aggAvg: avg}[fn]
}

// aggregate is one Aggregate node. Its fold assigns every row a dense group
// ID (groupTable.assign: one hash lookup per run of equal keys, so dwell's
// (obj, t)-sorted rows pay one per visit), folds each AggSpec's source column
// into flat per-group accumulators in one typed loop, then emits one row per
// group in ascending key order — radix-sorted (sorter.sortPerm) and gathered
// once, so plans are deterministic. Output rows carry the group-by values;
// all other columns are zero until an AggSpec writes its dst into them.
type aggregate struct {
	by     []Col
	keys   []SortKey // by, ascending: the emission order
	aggs   []AggSpec
	useVal bool // the output has a Val column: grouped by it or written to it
}

// aggScratch is everything an Aggregate holds, pooled across plans.
type aggScratch struct {
	groups groupTable
	gid    []int32
	states []aggState // spec j of group g at g*len(aggs)+j
	sorter
	out batchCols
}

var aggPool pool[aggScratch]

func newHashAggOp(child Operator, by []Col, aggs []AggSpec) (Operator, error) {
	if len(by) == 0 {
		return nil, fmt.Errorf("plan: Aggregate needs at least one group-by column")
	}
	ag := &aggregate{by: by, aggs: aggs}
	for _, c := range by {
		ag.keys = append(ag.keys, Asc(c))
		ag.useVal = ag.useVal || c == ColVal
	}
	for _, a := range aggs {
		if a.fn != aggCount && a.src.isString() {
			return nil, fmt.Errorf("plan: %s over string column %s", a.fn, a.src)
		}
		if a.dst.isString() {
			return nil, fmt.Errorf("plan: aggregate destination %s is not numeric", a.dst)
		}
		ag.useVal = ag.useVal || a.dst == ColVal
	}
	return &blockingOp[aggScratch]{unary: unary{child}, pool: &aggPool, fold: ag.fold}, nil
}

func (ag *aggregate) fold(child Operator, sc *aggScratch) *Batch {
	na := len(ag.aggs)
	sc.groups.reset(ag.by)
	sc.states = sc.states[:0]
	for child.Next() {
		in := child.Batch()
		sc.gid = sc.groups.assign(sc.gid, in)
		sc.states = append(sc.states, make([]aggState, sc.groups.len()*na-len(sc.states))...)
		for j, a := range ag.aggs {
			switch st := sc.states[j:]; a.src {
			case ColObjID:
				accumulate(st, na, sc.gid, in.Traj.ObjID)
			case ColFloor:
				accumulate(st, na, sc.gid, in.Traj.Floor)
			default:
				accumulate(st, na, sc.gid, floatCol(in, a.src))
			}
		}
	}
	if sc.groups.len() == 0 {
		return nil
	}
	reps, out := &sc.groups.reps, &sc.out
	sc.sortPerm(reps, ag.keys)
	out.gather(reps.batch(), sc.perm)
	out.zeroCols(maskOf(ag.by))
	clear(out.traj.HasPoint)
	out.useVal = ag.useVal
	if out.useVal {
		out.padVal()
	}
	for j, a := range ag.aggs {
		for r, g := range sc.perm {
			setColNum(out, a.dst, r, sc.states[int(g)*na+j].result(a.fn))
		}
	}
	return out.batch()
}

// accumulate folds col into the accumulator of each row's group: st[g*stride]
// for row i of group g = gid[i]. A nil col (no Val column, or a count's
// string source) reads as 0s.
func accumulate[T int64 | float64](st []aggState, stride int, gid []int32, col []T) {
	for i, g := range gid {
		var v float64
		if i < len(col) {
			v = float64(col[i])
		}
		st[int(g)*stride].add(v)
	}
}

// groupTable numbers the distinct key tuples of cols with dense int32 group
// IDs in order of first appearance; row g of reps is group g's first row. A
// lookup hashes the row's key, then compares columns (sameKey) along the
// chain of groups sharing that hash, so no key is ever encoded or allocated.
type groupTable struct {
	cols []Col
	reps batchCols
	head map[uint64]int32 // key hash -> 1 + the newest group with that hash
	next []int32          // next[g]: the group before g with g's hash, or -1
	brk  []bool
}

func (t *groupTable) reset(cols []Col) {
	t.cols = cols
	t.reps.reset(false)
	t.next = t.next[:0]
	if t.head == nil {
		t.head = make(map[uint64]int32)
	}
	clear(t.head)
}

func (t *groupTable) len() int { return len(t.next) }

// find returns row i's group, adding one when the row has none.
func (t *groupTable) find(b *Batch, i int) int32 {
	h := hashKey(t.cols, b, i)
	first := t.head[h] - 1
	for g := first; g >= 0; g = t.next[g] {
		if sameKey(t.cols, b, i, t.reps.batch(), int(g)) {
			return g
		}
	}
	t.reps.appendRange(b, i, i+1)
	t.next = append(t.next, first)
	t.head[h] = int32(len(t.next))
	return t.head[h] - 1
}

// assign returns, in gid's storage, the group of every row of b (see find).
// A row whose key columns equal its predecessor's shares its group without a
// lookup: the columns mark run breaks in one typed loop each, and only a
// break pays the hash.
func (t *groupTable) assign(gid []int32, b *Batch) []int32 {
	n := b.Len()
	gid = slices.Grow(gid[:0], n)[:n]
	t.brk = slices.Grow(t.brk[:0], n)[:n]
	clear(t.brk)
	for _, c := range t.cols {
		markBreaks(t.brk, b, c)
	}
	for i := range gid {
		if i == 0 || t.brk[i] {
			gid[i] = t.find(b, i)
		} else {
			gid[i] = gid[i-1]
		}
	}
	return gid
}

// markBreaks sets brk[i] where column c of row i differs from row i-1's.
// Under ==, -0 meets +0 and NaN breaks every run; find then reunites NaNs.
func markBreaks(brk []bool, b *Batch, c Col) {
	switch tr := b.Traj; c {
	case ColObjID:
		breaks(brk, tr.ObjID)
	case ColBuilding:
		breaks(brk, tr.Building)
	case ColFloor:
		breaks(brk, tr.Floor)
	case ColPartition:
		breaks(brk, tr.Partition)
	default:
		breaks(brk, floatCol(b, c)) // a missing Val column is one run of 0s
	}
}

func breaks[T comparable](brk []bool, col []T) {
	for i := 1; i < len(col); i++ {
		if col[i] != col[i-1] {
			brk[i] = true
		}
	}
}
