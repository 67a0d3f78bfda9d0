package plan

import (
	"math"
	"slices"
	"sort"
	"sync"

	"vita/internal/colstore"
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

// orderByOp is the blocking sort. It never builds a row: the child drains
// into column buffers, each sort key becomes one order-preserving uint64
// column, a row permutation is radix-sorted by those, and every column is
// gathered through the permutation once. Integer columns (ColObjID,
// ColFloor) compare as integers, strings lexicographically, floats
// numerically with -0 equal to +0 and every NaN after every number — so NaN
// rows sort last under Asc and first under Desc, and compare equal to each
// other. Rows that tie on every key keep their input order (a stable sort).
type orderByOp struct {
	child Operator
	keys  []SortKey
	done  bool
	sc    *orderByScratch // held from the first Next until Close
	out   Batch
}

// orderByScratch is everything a sort buffers. It is pooled across plans, so
// a steady stream of OrderBy queries allocates nothing that grows with the
// row count.
type orderByScratch struct {
	in, sorted batchCols
	key        []uint64
	perm, tmp  []int32
}

var orderByPool = sync.Pool{New: func() any { return new(orderByScratch) }}

func newOrderByOp(child Operator, keys []SortKey) Operator {
	return &orderByOp{child: child, keys: keys}
}

func (o *orderByOp) Next() bool {
	if o.done {
		return false
	}
	o.done = true
	sc := orderByPool.Get().(*orderByScratch)
	o.sc = sc
	sc.in.reset(false)
	for o.child.Next() {
		sc.in.appendBatch(o.child.Batch())
	}
	if o.child.Err() != nil || sc.in.len() == 0 {
		return false
	}
	res := &sc.in
	if sc.sortPerm(o.keys) {
		sc.sorted.reset(sc.in.useVal)
		sc.sorted.traj.Gather(&sc.in.traj, sc.perm)
		if sc.in.useVal {
			for _, i := range sc.perm {
				sc.sorted.val = append(sc.sorted.val, sc.in.val[i])
			}
		}
		res = &sc.sorted
	}
	o.out = *res.batch()
	return true
}

func (o *orderByOp) Batch() *Batch             { return &o.out }
func (o *orderByOp) Err() error                { return o.child.Err() }
func (o *orderByOp) Stats() colstore.ScanStats { return o.child.Stats() }

func (o *orderByOp) Close() error {
	if o.sc != nil {
		o.out = Batch{}
		orderByPool.Put(o.sc)
		o.sc = nil
	}
	return o.child.Close()
}

// sortPerm leaves in sc.perm the stable ordering of the buffered rows by
// keys, and reports whether it moved any row. It is an LSD sort over the key
// list: stable-sort by the last key, then the one before it, up to the
// first. A key the current permutation already orders is skipped after one
// O(n) check — ColT on every scan stream — and the radix passes of the rest
// touch only the bytes that differ somewhere in the column.
func (sc *orderByScratch) sortPerm(keys []SortKey) bool {
	n := sc.in.len()
	sc.perm = slices.Grow(sc.perm[:0], n)[:n]
	sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
	sc.key = slices.Grow(sc.key[:0], n)[:n]
	for i := range sc.perm {
		sc.perm[i] = int32(i)
	}
	key := sc.key
	moved := false
	for k := len(keys) - 1; k >= 0; k-- {
		sc.in.sortKeyColumn(key, keys[k])
		if orderedBy(key, sc.perm) {
			continue
		}
		moved = true
		sc.perm, sc.tmp = radixSortPerm(key, sc.perm, sc.tmp)
	}
	return moved
}

// sortKeyColumn fills dst with one uint64 per buffered row whose unsigned
// order is the row order k asks for.
func (bc *batchCols) sortKeyColumn(dst []uint64, k SortKey) {
	switch k.Col {
	case ColObjID:
		intSortKeys(dst, bc.traj.ObjID)
	case ColFloor:
		intSortKeys(dst, bc.traj.Floor)
	case ColBuilding:
		stringSortKeys(dst, bc.traj.Building)
	case ColPartition:
		stringSortKeys(dst, bc.traj.Partition)
	case ColX:
		floatSortKeys(dst, bc.traj.X)
	case ColY:
		floatSortKeys(dst, bc.traj.Y)
	case ColT:
		floatSortKeys(dst, bc.traj.T)
	case ColVal:
		if bc.useVal {
			floatSortKeys(dst, bc.val)
		} else {
			clear(dst) // a missing Val column reads as 0 everywhere
		}
	}
	if k.Desc {
		for i, v := range dst {
			dst[i] = ^v
		}
	}
}

// intSortKeys flips the sign bit, mapping int64 order onto uint64 order.
func intSortKeys(dst []uint64, col []int64) {
	for i, v := range col {
		dst[i] = uint64(v) ^ 1<<63
	}
}

// floatSortKeys applies the monotone bit transform — negative values
// complement, others set the sign bit — after folding -0 into +0 and every
// NaN onto the top key.
func floatSortKeys(dst []uint64, col []float64) {
	for i, f := range col {
		switch {
		case f != f:
			dst[i] = math.MaxUint64
		case f == 0:
			dst[i] = 1 << 63
		default:
			b := math.Float64bits(f)
			if b>>63 != 0 {
				dst[i] = ^b
			} else {
				dst[i] = b | 1<<63
			}
		}
	}
}

// stringSortKeys ranks each value within the sorted set of the column's
// distinct values.
func stringSortKeys(dst []uint64, col []string) {
	rank := make(map[string]uint64)
	for _, s := range col {
		rank[s] = 0
	}
	names := make([]string, 0, len(rank))
	for s := range rank {
		names = append(names, s)
	}
	sort.Strings(names)
	for r, s := range names {
		rank[s] = uint64(r)
	}
	for i, s := range col {
		dst[i] = rank[s]
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
