package plan

import (
	"math"
	"slices"
)

// SortKey is one OrderBy key: a column and a direction.
type SortKey struct {
	Col  Col
	Desc bool
}

// Asc sorts ascending by c.
func Asc(c Col) SortKey { return SortKey{Col: c} }

// Desc sorts descending by c.
func Desc(c Col) SortKey { return SortKey{Col: c, Desc: true} }

// newOrderByOp returns the blocking sort. It never builds a row: the child
// drains into column buffers, each sort key becomes one order-preserving
// uint64 column, a row permutation is radix-sorted by those, and every column
// is gathered through the permutation once. Integer columns (ColObjID,
// ColFloor) compare as integers, strings lexicographically, floats
// numerically with -0 equal to +0 and every NaN after every number — so NaN
// rows sort last under Asc and first under Desc, and compare equal to each
// other. Rows that tie on every key keep their input order (a stable sort).
func newOrderByOp(child Operator, keys []SortKey) Operator {
	return &blockingOp[orderByScratch]{unary: unary{child}, pool: &orderByPool,
		fold: func(child Operator, sc *orderByScratch) *Batch { return sc.sort(child, keys) }}
}

// orderByScratch is everything a sort buffers, pooled across plans.
type orderByScratch struct {
	in, sorted batchCols
	sorter
}

var orderByPool pool[orderByScratch]

func (sc *orderByScratch) sort(child Operator, keys []SortKey) *Batch {
	sc.in.reset(false)
	for child.Next() {
		in := child.Batch()
		sc.in.appendRange(in, 0, in.Len())
	}
	if sc.in.len() == 0 || !sc.sortPerm(&sc.in, keys) {
		return sc.in.batch()
	}
	sc.sorted.gather(sc.in.batch(), sc.perm)
	return sc.sorted.batch()
}

// sorter is the scratch of a permutation sort: OrderBy's, and Aggregate's
// emission in group-key order.
type sorter struct {
	key       []uint64
	perm, tmp []int32
	rank      map[string]uint64
	names     []string
}

// sortPerm leaves in s.perm the stable ordering of in's rows by keys, and
// reports whether it moved any row. It is an LSD sort over the key list:
// stable-sort by the last key, then the one before it, up to the first. A
// key the current permutation already orders is skipped after one O(n) check
// — ColT on every scan stream — and the radix passes of the rest touch only
// the bytes that differ somewhere in the column.
func (s *sorter) sortPerm(in *batchCols, keys []SortKey) bool {
	n := in.len()
	s.perm = slices.Grow(s.perm[:0], n)[:n]
	s.tmp = slices.Grow(s.tmp[:0], n)[:n]
	s.key = slices.Grow(s.key[:0], n)[:n]
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	moved := false
	for k := len(keys) - 1; k >= 0; k-- {
		s.keyColumn(s.key, in, keys[k])
		if orderedBy(s.key, s.perm) {
			continue
		}
		moved = true
		s.perm, s.tmp = radixSortPerm(s.key, s.perm, s.tmp)
	}
	return moved
}

// keyColumn fills dst with one uint64 per row of in whose unsigned order is
// the row order k asks for.
func (s *sorter) keyColumn(dst []uint64, in *batchCols, k SortKey) {
	switch k.Col {
	case ColObjID:
		intSortKeys(dst, in.traj.ObjID)
	case ColFloor:
		intSortKeys(dst, in.traj.Floor)
	case ColBuilding:
		s.stringSortKeys(dst, in.traj.Building)
	case ColPartition:
		s.stringSortKeys(dst, in.traj.Partition)
	default:
		clear(dst) // a missing Val column reads as 0 everywhere
		floatSortKeys(dst, floatCol(in.batch(), k.Col))
	}
	if k.Desc {
		for i, v := range dst {
			dst[i] = ^v
		}
	}
}

// intKey flips the sign bit, mapping int64 order onto uint64 order.
func intKey(v int64) uint64 { return uint64(v) ^ 1<<63 }

// floatKey applies the monotone bit transform — negative values complement,
// others set the sign bit — after folding -0 into +0 and every NaN onto the
// top key.
func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func intSortKeys(dst []uint64, col []int64) {
	for i, v := range col {
		dst[i] = intKey(v)
	}
}

func floatSortKeys(dst []uint64, col []float64) {
	for i, f := range col {
		dst[i] = floatKey(f)
	}
}

// stringSortKeys ranks each value within the sorted set of the column's
// distinct values.
func (s *sorter) stringSortKeys(dst []uint64, col []string) {
	if s.rank == nil {
		s.rank = make(map[string]uint64)
	}
	clear(s.rank)
	s.names = s.names[:0]
	for _, v := range col {
		if _, ok := s.rank[v]; !ok {
			s.rank[v] = 0
			s.names = append(s.names, v)
		}
	}
	slices.Sort(s.names)
	for r, v := range s.names {
		s.rank[v] = uint64(r)
	}
	for i, v := range col {
		dst[i] = s.rank[v]
	}
}

// orderedBy reports whether visiting rows in perm order meets key in
// non-descending order — when a stable sort by key would change nothing.
func orderedBy(key []uint64, perm []int32) bool {
	prev := key[perm[0]]
	for _, i := range perm[1:] {
		v := key[i]
		if v < prev {
			return false
		}
		prev = v
	}
	return true
}

// radixSortPerm stable-sorts perm by key[perm[i]], least significant byte
// first, skipping bytes no two keys differ in. It returns the sorted
// permutation and the spare buffer (the two swap on every pass).
func radixSortPerm(key []uint64, perm, tmp []int32) ([]int32, []int32) {
	var diff uint64
	for _, v := range key {
		diff |= v ^ key[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, v := range key {
			next[v>>shift&0xff]++
		}
		sum := 0
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for _, i := range perm {
			b := key[i] >> shift & 0xff
			tmp[next[b]] = i
			next[b]++
		}
		perm, tmp = tmp, perm
	}
	return perm, tmp
}
