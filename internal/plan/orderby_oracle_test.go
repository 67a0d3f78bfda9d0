package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vita/internal/colstore"
)

// oracleOrderBy is the reference OrderBy: the row-at-a-time implementation
// the operator used before it sorted columns — materialize every Row,
// sort.SliceStable through a comparator — kept here so the permutation sort
// has an independent answer to be held to. Its comparator states the key
// semantics directly: integer columns as integers, strings lexicographic,
// floats numeric with every NaN after every number.
func oracleOrderBy(rows []Row, keys []SortKey) []Row {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c := oracleCompare(out[i], out[j], k.Col)
			if c == 0 {
				continue
			}
			return (c < 0) != k.Desc
		}
		return false
	})
	return out
}

func oracleCompare(a, b Row, c Col) int {
	switch c {
	case ColObjID:
		return compareOrdered(a.Sample.ObjID, b.Sample.ObjID)
	case ColFloor:
		return compareOrdered(a.Sample.Loc.Floor, b.Sample.Loc.Floor)
	case ColBuilding, ColPartition:
		return strings.Compare(sampleColStr(a.Sample, c), sampleColStr(b.Sample, c))
	}
	x, y := sampleColNum(a.Sample, a.Val, c), sampleColNum(b.Sample, b.Val, c)
	switch xn, yn := math.IsNaN(x), math.IsNaN(y); {
	case xn && yn:
		return 0
	case xn:
		return 1
	case yn:
		return -1
	}
	return compareOrdered(x, y)
}

func compareOrdered[T int | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// batchesOp is a leaf Operator over prepared batches, Val column and all.
type batchesOp struct {
	batches []*Batch
	next    int
}

func (b *batchesOp) Next() bool {
	b.next++
	return b.next <= len(b.batches)
}
func (b *batchesOp) Batch() *Batch             { return b.batches[b.next-1] }
func (b *batchesOp) Err() error                { return nil }
func (b *batchesOp) Stats() colstore.ScanStats { return colstore.ScanStats{} }
func (b *batchesOp) Close() error              { return nil }

// Value tables the generated rows draw from: few values per column, so ties
// are everywhere, with the awkward ones present — integers that collide as
// float64, both zeros, infinities, NaN, the empty string.
var (
	fuzzInts    = []int64{math.MinInt64, -3, -1, 0, 1, 2, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	fuzzFloats  = []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 1, 1, 2.5, 1e300, math.Inf(1), math.NaN()}
	fuzzStrings = []string{"", "a", "ab", "b", "hall", "lab", "é"}
)

// orderByCase decodes fuzz bytes into an OrderBy problem. spec picks the
// keys (1–3, any column, either direction), whether batches carry Val, and
// the batch length; genBatches turns data into the rows.
func orderByCase(data []byte, spec uint32) ([]*Batch, []SortKey) {
	nkeys := 1 + int(spec&3)%3
	spec >>= 2
	keys := make([]SortKey, nkeys)
	for i := range keys {
		keys[i] = SortKey{Col: Col(spec & 7), Desc: spec&8 != 0}
		spec >>= 4
	}
	return genBatches(data, spec&1 != 0, 1+int(spec>>1&31)), keys
}

// genBatches decodes fuzz bytes into batches of batchLen rows, four bytes a
// row, one nibble per column, each drawn from the value tables above. With
// withVal, every other batch carries a Val column.
func genBatches(data []byte, withVal bool, batchLen int) []*Batch {
	pick := func(n int, nib byte) int { return int(nib) % n }
	var batches []*Batch
	for len(data) >= 4 {
		if len(batches) == 0 || batches[len(batches)-1].Len() == batchLen {
			batches = append(batches, &Batch{Traj: &colstore.TrajectoryBatch{}})
		}
		b := batches[len(batches)-1]
		tr := b.Traj
		tr.ObjID = append(tr.ObjID, fuzzInts[pick(len(fuzzInts), data[0]>>4)])
		tr.Floor = append(tr.Floor, fuzzInts[pick(len(fuzzInts), data[0]&15)])
		tr.Building = append(tr.Building, fuzzStrings[pick(len(fuzzStrings), data[1]>>4)])
		tr.Partition = append(tr.Partition, fuzzStrings[pick(len(fuzzStrings), data[1]&15)])
		tr.X = append(tr.X, fuzzFloats[pick(len(fuzzFloats), data[2]>>4)])
		tr.Y = append(tr.Y, fuzzFloats[pick(len(fuzzFloats), data[2]&15)])
		tr.T = append(tr.T, fuzzFloats[pick(len(fuzzFloats), data[3]>>4)])
		tr.HasPoint = append(tr.HasPoint, data[3]&8 != 0)
		// Every other batch goes without Val, as after a Derive-less branch.
		if withVal && len(batches)%2 == 1 {
			b.Val = append(b.Val, fuzzFloats[pick(len(fuzzFloats), data[3]&7)])
		}
		data = data[4:]
	}
	return batches
}

// checkOrderBy runs the operator over the batches and requires its output to
// equal the oracle's, row for row and bit for bit.
func checkOrderBy(t *testing.T, batches []*Batch, keys []SortKey) {
	t.Helper()
	input, err := CollectRows(&batchesOp{batches: batches})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleOrderBy(input, keys)
	got, err := CollectRows(newOrderByOp(&batchesOp{batches: batches}, keys))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, fmt.Sprintf("keys %v", keys), got, want)
}

// sameRows requires two row lists to be equal row for row and bit for bit.
func sameRows(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows out, oracle has %d", what, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.Sample.ObjID != w.Sample.ObjID || g.Sample.Loc.Building != w.Sample.Loc.Building ||
			g.Sample.Loc.Floor != w.Sample.Loc.Floor || g.Sample.Loc.Partition != w.Sample.Loc.Partition ||
			g.Sample.Loc.HasPoint != w.Sample.Loc.HasPoint ||
			bits(g.Sample.Loc.Point.X) != bits(w.Sample.Loc.Point.X) ||
			bits(g.Sample.Loc.Point.Y) != bits(w.Sample.Loc.Point.Y) ||
			bits(g.Sample.T) != bits(w.Sample.T) || bits(g.Val) != bits(w.Val) {
			t.Fatalf("%s: row %d of %d is %+v, oracle has %+v", what, i, len(got), g, w)
		}
	}
}

// TestOrderByMatchesOracle is the seeded property test: random, tie-heavy
// problems of every shape — empty, one row, many batches, with and without
// Val, every column, one to three keys in either direction — plus the same
// rows already sorted and reverse-sorted by the keys (the skip path and its
// worst case).
func TestOrderByMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 400; iter++ {
		nrows := []int{0, 1, 2, 7, 64, 300, 1500}[iter%7]
		data := make([]byte, 4*nrows)
		rng.Read(data)
		batches, keys := orderByCase(data, rng.Uint32())
		checkOrderBy(t, batches, keys)

		// Re-feed the oracle's answer, forwards and backwards, as one batch.
		rows, _ := CollectRows(&batchesOp{batches: batches})
		sorted := oracleOrderBy(rows, keys)
		checkOrderBy(t, rowsBatch(sorted), keys)
		slices.Reverse(sorted)
		checkOrderBy(t, rowsBatch(sorted), keys)
	}
}

func rowsBatch(rows []Row) []*Batch { return rowsBatches(rows, len(rows)+1, true) }

// rowsBatches lays rows out as batches of batchLen rows, with or without the
// Val column.
func rowsBatches(rows []Row, batchLen int, withVal bool) []*Batch {
	var out []*Batch
	for len(rows) > 0 {
		n := min(batchLen, len(rows))
		b := &Batch{Traj: &colstore.TrajectoryBatch{}}
		for _, r := range rows[:n] {
			b.Traj.Append(r.Sample)
			if withVal {
				b.Val = append(b.Val, r.Val)
			}
		}
		out = append(out, b)
		rows = rows[n:]
	}
	return out
}

// FuzzOrderBy lets the fuzzer pick the rows and the key list; see
// orderByCase for the encoding.
func FuzzOrderBy(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78}, uint32(0x6d))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over."), uint32(0x1f2e6))
	f.Add([]byte{0x60, 0, 0, 0, 0x70, 0, 0, 0, 0x60, 0, 0, 0xa0, 0x70, 0, 0, 0xa0}, uint32(0x60))
	f.Fuzz(func(t *testing.T, data []byte, spec uint32) {
		batches, keys := orderByCase(data, spec)
		checkOrderBy(t, batches, keys)
	})
}

// TestOrderByKeySemantics pins the two places the row comparator was wrong:
// it compared object IDs and floors after a float64 conversion, so integers
// that differ above 2^53 tied; and it called a NaN equal to everything, which
// is not an order at all. Integers now compare as integers, and NaN sorts
// after every number ascending, before every number descending.
func TestOrderByKeySemantics(t *testing.T) {
	run := func(tr *colstore.TrajectoryBatch, keys ...SortKey) *colstore.TrajectoryBatch {
		t.Helper()
		op := newOrderByOp(&batchesOp{batches: []*Batch{{Traj: tr}}}, keys)
		if !op.Next() {
			t.Fatal("no output")
		}
		out := *op.Batch().Traj
		out.ObjID, out.T = slices.Clone(out.ObjID), slices.Clone(out.T)
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	cols := func(obj []int64, ts []float64) *colstore.TrajectoryBatch {
		n := len(obj)
		return &colstore.TrajectoryBatch{
			ObjID: obj, T: ts,
			Building: make([]string, n), Partition: make([]string, n), Floor: make([]int64, n),
			X: make([]float64, n), Y: make([]float64, n), HasPoint: make([]bool, n),
		}
	}

	big := int64(1) << 53 // float64(big) == float64(big+1)
	got := run(cols([]int64{big + 1, big, big + 1, big}, []float64{0, 1, 2, 3}), Asc(ColObjID))
	if want := []int64{big, big, big + 1, big + 1}; !slices.Equal(got.ObjID, want) {
		t.Errorf("object IDs above 2^53: got %v, want %v", got.ObjID, want)
	}
	if want := []float64{1, 3, 0, 2}; !slices.Equal(got.T, want) {
		t.Errorf("ties among big IDs lost input order: T = %v, want %v", got.T, want)
	}

	nan := math.NaN()
	ts := []float64{2, nan, math.Inf(1), 1, nan, math.Inf(-1)}
	ids := []int64{0, 1, 2, 3, 4, 5}
	got = run(cols(slices.Clone(ids), slices.Clone(ts)), Asc(ColT))
	if want := []int64{5, 3, 0, 2, 1, 4}; !slices.Equal(got.ObjID, want) {
		t.Errorf("NaN ascending: row order %v, want %v (NaN last, in input order)", got.ObjID, want)
	}
	got = run(cols(slices.Clone(ids), slices.Clone(ts)), Desc(ColT))
	if want := []int64{1, 4, 2, 0, 3, 5}; !slices.Equal(got.ObjID, want) {
		t.Errorf("NaN descending: row order %v, want %v (NaN first, in input order)", got.ObjID, want)
	}
}
