package plan

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/trajectory"
)

// The row-at-a-time operators Aggregate, Filter/Project and SnapshotAt
// were before they moved to columns, kept as the oracles the column forms
// are held to (as oracleOrderBy is for OrderBy). Each materializes a Sample
// per row and appends output field by field. One thing is restated rather
// than kept: the old key encoding hashed ColObjID and ColFloor as float64
// bits, so integers above 2^53 collided, and it kept -0/+0 and NaN payloads
// apart. oracleColKey states OrderBy's key semantics instead — integers as
// integers, ±0 one key, every NaN one key — and oracleCompare sorts NaN last.

// appendRow appends one materialized row to the columns.
func (bc *batchCols) appendRow(s trajectory.Sample, val float64) {
	bc.traj.Append(s)
	if bc.useVal {
		bc.val = append(bc.val, val)
	}
}

// sampleColNum and sampleColStr are the row-materialized counterparts of
// colNum/colStr.
func sampleColNum(s trajectory.Sample, val float64, c Col) float64 {
	switch c {
	case ColObjID:
		return float64(s.ObjID)
	case ColFloor:
		return float64(s.Loc.Floor)
	case ColX:
		return s.Loc.Point.X
	case ColY:
		return s.Loc.Point.Y
	case ColT:
		return s.T
	case ColVal:
		return val
	default:
		return 0
	}
}

func sampleColStr(s trajectory.Sample, c Col) string {
	switch c {
	case ColBuilding:
		return s.Loc.Building
	case ColPartition:
		return s.Loc.Partition
	default:
		return ""
	}
}

// oracleColKey appends an unambiguous encoding of column c in row i to dst:
// strings length-prefixed, integer columns as their int64 bits, floats as
// float64 bits after folding -0 into +0 and every NaN into one.
func oracleColKey(dst []byte, b *Batch, c Col, i int) []byte {
	switch {
	case c.isString():
		s := colStr(b, c, i)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case c == ColObjID:
		return binary.LittleEndian.AppendUint64(dst, uint64(b.Traj.ObjID[i]))
	case c == ColFloor:
		return binary.LittleEndian.AppendUint64(dst, uint64(b.Traj.Floor[i]))
	}
	f := colNum(b, c, i)
	if f != f {
		f = math.NaN()
	} else if f == 0 {
		f = 0
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// match evaluates the predicate against one row.
func (p Pred) match(s trajectory.Sample) bool {
	switch p.kind {
	case predTime:
		return s.T >= p.t0 && s.T <= p.t1
	case predFloor:
		return s.Loc.Floor == p.floor
	case predBox:
		return s.Loc.HasPoint && p.box.Contains(s.Loc.Point)
	case predObj:
		return s.ObjID == p.obj
	default:
		return p.where(s)
	}
}

// --- Aggregate ---

type oracleAggGroup struct {
	rep    trajectory.Sample
	repVal float64
	states []aggState
}

type oracleAggOp struct {
	child  Operator
	by     []Col
	aggs   []AggSpec
	done   bool
	bc     batchCols
	keyBuf []byte
}

func (h *oracleAggOp) groupRep(b *Batch, i int) (trajectory.Sample, float64) {
	var rep trajectory.Sample
	var repVal float64
	s := b.Traj.Row(i)
	for _, c := range h.by {
		switch c {
		case ColObjID:
			rep.ObjID = s.ObjID
		case ColBuilding:
			rep.Loc.Building = s.Loc.Building
		case ColFloor:
			rep.Loc.Floor = s.Loc.Floor
		case ColPartition:
			rep.Loc.Partition = s.Loc.Partition
		case ColX:
			rep.Loc.Point.X = s.Loc.Point.X
		case ColY:
			rep.Loc.Point.Y = s.Loc.Point.Y
		case ColT:
			rep.T = s.T
		case ColVal:
			repVal = colNum(b, ColVal, i)
		}
	}
	return rep, repVal
}

func (h *oracleAggOp) Next() bool {
	if h.done {
		return false
	}
	h.done = true
	groups := make(map[string]*oracleAggGroup)
	for h.child.Next() {
		in := h.child.Batch()
		for i := 0; i < in.Len(); i++ {
			h.keyBuf = h.keyBuf[:0]
			for _, c := range h.by {
				h.keyBuf = oracleColKey(h.keyBuf, in, c, i)
			}
			g := groups[string(h.keyBuf)]
			if g == nil {
				g = &oracleAggGroup{states: make([]aggState, len(h.aggs))}
				g.rep, g.repVal = h.groupRep(in, i)
				groups[string(h.keyBuf)] = g
			}
			for j, a := range h.aggs {
				var v float64
				if a.fn != aggCount {
					v = colNum(in, a.src, i)
				}
				g.states[j].add(v)
			}
		}
	}
	ordered := make([]*oracleAggGroup, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := Row{ordered[i].rep, ordered[i].repVal}, Row{ordered[j].rep, ordered[j].repVal}
		for _, c := range h.by {
			if cmp := oracleCompare(a, b, c); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	useVal := slices.Contains(h.by, ColVal)
	for _, a := range h.aggs {
		useVal = useVal || a.dst == ColVal
	}
	h.bc.reset(useVal)
	for r, g := range ordered {
		h.bc.appendRow(g.rep, g.repVal)
		for j, a := range h.aggs {
			setColNum(&h.bc, a.dst, r, g.states[j].result(a.fn))
		}
	}
	return h.bc.len() > 0
}

func (h *oracleAggOp) Batch() *Batch             { return h.bc.batch() }
func (h *oracleAggOp) Err() error                { return h.child.Err() }
func (h *oracleAggOp) Stats() colstore.ScanStats { return h.child.Stats() }
func (h *oracleAggOp) Close() error              { return h.child.Close() }

// --- Filter (+ fused Project) ---

type oracleFilterProjectOp struct {
	child Operator
	preds []Pred
	keep  colMask
	bc    batchCols
}

func (f *oracleFilterProjectOp) projectRow(s trajectory.Sample) trajectory.Sample {
	if f.keep == allCols {
		return s
	}
	var out trajectory.Sample
	if f.keep.has(ColObjID) {
		out.ObjID = s.ObjID
	}
	if f.keep.has(ColBuilding) {
		out.Loc.Building = s.Loc.Building
	}
	if f.keep.has(ColFloor) {
		out.Loc.Floor = s.Loc.Floor
	}
	if f.keep.has(ColPartition) {
		out.Loc.Partition = s.Loc.Partition
	}
	if f.keep.has(ColX) && f.keep.has(ColY) {
		out.Loc.Point = s.Loc.Point
		out.Loc.HasPoint = s.Loc.HasPoint
	}
	if f.keep.has(ColT) {
		out.T = s.T
	}
	return out
}

func (f *oracleFilterProjectOp) Next() bool {
	for f.child.Next() {
		in := f.child.Batch()
		useVal := in.Val != nil && f.keep.has(ColVal)
		f.bc.reset(useVal)
	rows:
		for i := 0; i < in.Len(); i++ {
			s := in.Traj.Row(i)
			for _, p := range f.preds {
				if !p.match(s) {
					continue rows
				}
			}
			var v float64
			if useVal && i < len(in.Val) {
				v = in.Val[i]
			}
			f.bc.appendRow(f.projectRow(s), v)
		}
		if f.bc.len() > 0 {
			return true
		}
	}
	return false
}

func (f *oracleFilterProjectOp) Batch() *Batch             { return f.bc.batch() }
func (f *oracleFilterProjectOp) Err() error                { return f.child.Err() }
func (f *oracleFilterProjectOp) Stats() colstore.ScanStats { return f.child.Stats() }
func (f *oracleFilterProjectOp) Close() error              { return f.child.Close() }

// --- SnapshotAt ---

type oracleSnapshotOp struct {
	child  Operator
	t      float64
	maxGap float64
	done   bool
	bc     batchCols
}

type oracleBracket struct {
	obj              int64
	prev, next       trajectory.Sample
	hasPrev, hasNext bool
}

func (s *oracleSnapshotOp) Next() bool {
	if s.done {
		return false
	}
	s.done = true
	slot := make(map[int64]int)
	var brs []oracleBracket
	for s.child.Next() {
		tr := s.child.Batch().Traj
		for i, t := range tr.T {
			j, ok := slot[tr.ObjID[i]]
			if !ok {
				j = len(brs)
				slot[tr.ObjID[i]] = j
				brs = append(brs, oracleBracket{obj: tr.ObjID[i]})
			}
			br := &brs[j]
			if t < s.t {
				if !br.hasPrev || t >= br.prev.T {
					br.prev, br.hasPrev = tr.Row(i), true
				}
			} else if !br.hasNext || t < br.next.T {
				br.next, br.hasNext = tr.Row(i), true
			}
		}
	}
	slices.SortFunc(brs, func(a, b oracleBracket) int { return cmp.Compare(a.obj, b.obj) })
	s.bc.reset(false)
	for i := range brs {
		br := &brs[i]
		var prev, next *trajectory.Sample
		if br.hasPrev {
			prev = &br.prev
		}
		if br.hasNext {
			next = &br.next
		}
		if loc, ok := trajectory.InterpolateAt(prev, next, s.t, s.maxGap); ok {
			s.bc.appendRow(trajectory.Sample{ObjID: int(br.obj), Loc: loc, T: s.t}, 0)
		}
	}
	return s.bc.len() > 0
}

func (s *oracleSnapshotOp) Batch() *Batch             { return s.bc.batch() }
func (s *oracleSnapshotOp) Err() error                { return s.child.Err() }
func (s *oracleSnapshotOp) Stats() colstore.ScanStats { return s.child.Stats() }
func (s *oracleSnapshotOp) Close() error              { return s.child.Close() }

// --- Generated comparisons ---

// drain collects op's rows and whether any batch carried a Val column, then
// closes it.
func drain(t *testing.T, op Operator) ([]Row, bool) {
	t.Helper()
	var rows []Row
	withVal := false
	for op.Next() {
		b := op.Batch()
		withVal = withVal || b.Val != nil
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, Row{Sample: b.Traj.Row(i), Val: colNum(b, ColVal, i)})
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return rows, withVal
}

// sameOutput runs op and its oracle and requires the same rows, bit for bit,
// and the same presence of the Val column.
func sameOutput(t *testing.T, what string, op, oracle Operator) {
	t.Helper()
	got, gotVal := drain(t, op)
	want, wantVal := drain(t, oracle)
	sameRows(t, what, got, want)
	if len(got) > 0 && gotVal != wantVal {
		t.Fatalf("%s: Val column present %v, oracle %v", what, gotVal, wantVal)
	}
}

// variants re-lays the rows of batches in the input orders the operators
// must not care about: as generated, sorted by cols (one run per key),
// reverse-sorted, and run-structured (each row repeated in place), each cut
// into batches of batchLen rows.
func variants(batches []*Batch, cols []Col, batchLen int, withVal bool) map[string][]*Batch {
	rows, _ := CollectRows(&batchesOp{batches: batches})
	keys := make([]SortKey, len(cols))
	for i, c := range cols {
		keys[i] = Asc(c)
	}
	sorted := oracleOrderBy(rows, keys)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	var runs []Row
	for i, r := range rows {
		for range 1 + i%4 {
			runs = append(runs, r)
		}
	}
	return map[string][]*Batch{
		"generated": batches,
		"sorted":    rowsBatches(sorted, batchLen, withVal),
		"reversed":  rowsBatches(reversed, batchLen, withVal),
		"runs":      rowsBatches(runs, batchLen, withVal),
	}
}

// aggCase decodes a spec into an Aggregate problem over genBatches(data):
// 1–3 group-by columns (any column), 0–3 aggregates (any function, any
// numeric destination, any numeric source — or any source for a count).
func aggCase(data []byte, spec uint64) ([]*Batch, []Col, []AggSpec, int, bool) {
	withVal, batchLen := spec&1 != 0, 1+int(spec>>1&31)
	spec >>= 6
	by := make([]Col, 1+int(spec&3)%3)
	spec >>= 2
	for i := range by {
		by[i] = Col(spec & 7)
		spec >>= 3
	}
	aggs := make([]AggSpec, int(spec&3))
	spec >>= 2
	for i := range aggs {
		a := AggSpec{fn: aggFn(spec&7) % 5, src: Col(spec >> 3 & 7), dst: Col(spec >> 6 & 7)}
		if a.fn != aggCount && a.src.isString() {
			a.src = ColX
		}
		if a.dst.isString() {
			a.dst = ColVal
		}
		aggs[i] = a
		spec >>= 9
	}
	return genBatches(data, withVal, batchLen), by, aggs, batchLen, withVal
}

func checkAggregate(t *testing.T, data []byte, spec uint64) {
	t.Helper()
	batches, by, aggs, batchLen, withVal := aggCase(data, spec)
	for name, in := range variants(batches, by, batchLen, withVal) {
		op, err := newHashAggOp(&batchesOp{batches: in}, by, aggs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &oracleAggOp{child: &batchesOp{batches: in}, by: by, aggs: aggs}
		sameOutput(t, fmt.Sprintf("%s rows, by %v, aggs %v", name, by, aggs), op, oracle)
	}
}

// TestAggregateMatchesOracle is the seeded property test for Aggregate:
// tie-heavy rows with ±0, ±Inf, NaN and integers past 2^53, every column as
// a key, one to three keys, every AggSpec, empty to multi-batch input with
// and without Val, each generated, sorted, reverse-sorted and in runs.
func TestAggregateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 4*[]int{0, 1, 2, 7, 64, 300, 1500}[iter%7])
		rng.Read(data)
		checkAggregate(t, data, rng.Uint64())
	}
}

// FuzzAggregate lets the fuzzer pick the rows, keys and aggregates; see
// aggCase for the encoding.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78}, uint64(0x6d))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over."), uint64(0x1f2e6a5c3))
	f.Add([]byte{0x60, 0, 0x30, 0xa0, 0x70, 0, 0x40, 0xa0, 0x60, 0, 0xa0, 0xa0}, uint64(0x3c1fa0b401))
	f.Fuzz(checkAggregate)
}

// TestFilterProjectMatchesOracle holds the selection-vector Filter and the
// gather-and-zero Project to the row filter on generated predicates (every
// kind, Where included, values drawn from the same tables as the rows) and
// every keep-set.
func TestFilterProjectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pickF := func() float64 { return fuzzFloats[rng.Intn(len(fuzzFloats))] }
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 4*[]int{0, 1, 2, 7, 64, 300}[iter%6])
		rng.Read(data)
		batches := genBatches(data, rng.Intn(2) == 0, 1+rng.Intn(40))
		var preds []Pred
		for range rng.Intn(4) {
			switch rng.Intn(5) {
			case 0:
				preds = append(preds, TimeBetween(min(pickF(), pickF()), max(pickF(), pickF())))
			case 1:
				preds = append(preds, OnFloor(int(fuzzInts[rng.Intn(len(fuzzInts))])))
			case 2:
				x, y := pickF(), pickF()
				preds = append(preds, InBox(geom.BBox{Min: geom.Pt(min(x, y), -1), Max: geom.Pt(max(x, y), 3)}))
			case 3:
				preds = append(preds, ObjEq(int(fuzzInts[rng.Intn(len(fuzzInts))])))
			default:
				part := fuzzStrings[rng.Intn(len(fuzzStrings))]
				preds = append(preds, Where(func(s trajectory.Sample) bool { return s.Loc.Partition <= part }))
			}
		}
		var project []Col
		for c := Col(0); c < numCols; c++ {
			if rng.Intn(3) == 0 {
				project = append(project, c)
			}
		}
		op := newFilterProjectOp(&batchesOp{batches: batches}, preds, project)
		oracle := &oracleFilterProjectOp{child: &batchesOp{batches: batches}, preds: preds, keep: maskOf(project)}
		sameOutput(t, fmt.Sprintf("%d preds, project %v", len(preds), project), op, oracle)
	}
}

// snapshotCase decodes a spec into a SnapshotAt problem over genBatches:
// object IDs from four values so brackets collect many rows, the instant and
// the gap from the float table (NaN and infinities included).
func snapshotCase(data []byte, spec uint32) ([]*Batch, float64, float64) {
	batches := genBatches(data, false, 1+int(spec&31))
	for _, b := range batches {
		for i := range b.Traj.ObjID {
			b.Traj.ObjID[i] = fuzzInts[int(b.Traj.Floor[i]&3)]
		}
	}
	pick := func(n uint32) float64 { return fuzzFloats[int(n)%len(fuzzFloats)] }
	return batches, pick(spec >> 5 & 15), math.Abs(pick(spec >> 9 & 15))
}

func checkSnapshotAt(t *testing.T, data []byte, spec uint32) {
	t.Helper()
	batches, at, maxGap := snapshotCase(data, spec)
	what := fmt.Sprintf("SnapshotAt(%g, %g)", at, maxGap)
	sameOutput(t, what, newSnapshotAtOp(&batchesOp{batches: batches}, at, maxGap),
		&oracleSnapshotOp{child: &batchesOp{batches: batches}, t: at, maxGap: maxGap})
}

// TestSnapshotAtMatchesOracle holds the column fold to the map-of-Samples
// fold on generated series: ties on time, rows at the instant, NaN and
// infinite timestamps and instants, every batch length.
func TestSnapshotAtMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 4*[]int{0, 1, 2, 7, 64, 300}[iter%6])
		rng.Read(data)
		checkSnapshotAt(t, data, rng.Uint32())
	}
}

// FuzzSnapshotAt lets the fuzzer pick the rows, the instant and the gap; see
// snapshotCase for the encoding.
func FuzzSnapshotAt(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78}, uint32(0x6d))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over."), uint32(0x1f2e6))
	f.Add([]byte{0x60, 0, 0, 0x50, 0x70, 0, 0, 0x60, 0x60, 0, 0, 0xa0}, uint32(0xa4c3))
	f.Fuzz(checkSnapshotAt)
}
