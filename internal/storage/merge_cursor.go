package storage

import (
	"vita/internal/colstore"
)

// A merged cursor presents several sorted inputs — the live segments of an
// internal/seglog dataset — as one cursor in the order a single file holding
// the same rows would have. Each input is already sorted by the kind's merge
// key (trajectory segments carry global time order, ties by object; RSSI
// segments ascending object groups) and inputs never interleave *within* an
// equal key except by input order, so a k-way min-scan with input index as
// the final tie-break reproduces the original stream exactly.
//
// The merge moves runs, not rows: it finds the leading input and the
// runner-up, then takes the leader's rows up to where the runner-up's head
// overtakes them — one key comparison per row on the batches' own key columns
// — and appends the run column by column. Segment counts are small
// (compaction keeps them so), so the scan over inputs per run beats a heap.
//
// Memory stays O(inputs × batch): one decoded batch per input plus the output
// batch, however large the dataset.

// Merge merges already-open cursors of kind k into one stream in the kind's
// order (Trajectory: (T, ObjID, input index); RSSI: (ObjID, input index), so
// the chunks of an object group split across inputs concatenate in input
// order). Inputs must be sorted that way — true of every file the pipeline
// writes. The merged cursor owns the inputs: its Close closes them all. A
// single input is returned as it is.
func Merge[B colstore.Batch](k *Kind[B], inputs []Cursor[B]) Cursor[B] {
	if len(inputs) == 1 {
		return inputs[0]
	}
	return &mergeCursor[B]{
		k:   k,
		in:  inputs,
		cur: make([]B, len(inputs)),
		t:   make([][]float64, len(inputs)),
		obj: make([][]int64, len(inputs)),
		pos: make([]int, len(inputs)),
		out: k.newBatch(),
	}
}

// OpenCursorMulti opens every path under pred and merges them; see Merge.
func OpenCursorMulti[B colstore.Batch](k *Kind[B], paths []string, pred colstore.Predicate, opts colstore.OpenOptions) (Cursor[B], error) {
	inputs := make([]Cursor[B], 0, len(paths))
	for _, p := range paths {
		cur, _, err := OpenCursor(k, p, pred, opts)
		if err != nil {
			for _, c := range inputs {
				c.Close()
			}
			return nil, err
		}
		inputs = append(inputs, cur)
	}
	return Merge(k, inputs), nil
}

type mergeCursor[B colstore.Batch] struct {
	k   *Kind[B]
	in  []Cursor[B]
	cur []B // current batch per input
	// t and obj are the merge-key columns of cur[i] (t[i] is nil for a kind
	// without a time key); obj[i] == nil marks input i drained.
	t      [][]float64
	obj    [][]int64
	pos    []int
	out    B
	err    error
	primed bool
	closed bool
}

func (c *mergeCursor[B]) Next() bool {
	if c.err != nil || c.closed {
		return false
	}
	if !c.primed {
		c.primed = true
		for i := range c.in {
			if c.advance(i); c.err != nil {
				return false
			}
		}
	}
	c.out.Reset()
	for room := BatchRows; room > 0; {
		// The leader is the input whose head row sorts first, the runner-up
		// the one that would lead without it.
		lead, next := -1, -1
		for i := range c.in {
			switch {
			case c.obj[i] == nil:
			case lead < 0:
				lead = i
			case c.before(i, c.pos[i], lead, c.pos[lead]):
				lead, next = i, lead
			case next < 0 || c.before(i, c.pos[i], next, c.pos[next]):
				next = i
			}
		}
		if lead < 0 {
			break // every input drained
		}
		lo := c.pos[lead]
		hi, end := lo+1, min(len(c.obj[lead]), lo+room)
		if next < 0 {
			hi = end
		}
		for hi < end && !c.before(next, c.pos[next], lead, hi) {
			hi++
		}
		c.k.appendRows(c.out, c.cur[lead], lo, hi)
		room -= hi - lo
		c.pos[lead] = hi
		if hi == len(c.obj[lead]) {
			if c.advance(lead); c.err != nil {
				return false
			}
		}
	}
	return c.out.Len() > 0
}

// before reports whether input i's row pi sorts before input j's row pj: by
// time where the kind has a time key, then by object, and on a full tie the
// earlier input first.
func (c *mergeCursor[B]) before(i, pi, j, pj int) bool {
	if c.t[i] != nil {
		if ti, tj := c.t[i][pi], c.t[j][pj]; ti != tj {
			return ti < tj
		}
	}
	if oi, oj := c.obj[i][pi], c.obj[j][pj]; oi != oj {
		return oi < oj
	}
	return i < j
}

// advance pulls input i's next batch, marking it drained at end of input.
// Holding the previous batch across other inputs' advances is safe: a
// cursor's batch is invalidated only by its own Next.
func (c *mergeCursor[B]) advance(i int) {
	c.pos[i], c.t[i], c.obj[i] = 0, nil, nil
	if c.in[i].Next() {
		c.cur[i] = c.in[i].Batch()
		c.t[i], c.obj[i] = c.k.mergeKeys(c.cur[i])
	} else if err := c.in[i].Err(); err != nil {
		c.err = err
	}
}

func (c *mergeCursor[B]) Batch() B   { return c.out }
func (c *mergeCursor[B]) Err() error { return c.err }

// Stats sums the inputs' scan statistics.
func (c *mergeCursor[B]) Stats() colstore.ScanStats {
	var st colstore.ScanStats
	for _, in := range c.in {
		st = st.Add(in.Stats())
	}
	return st
}

// PeakDecodedBytes returns the largest block any input decoded. The merge
// itself holds one such batch per input plus an output batch of at most
// BatchRows rows.
func (c *mergeCursor[B]) PeakDecodedBytes() int64 {
	var peak int64
	for _, in := range c.in {
		peak = max(peak, in.PeakDecodedBytes())
	}
	return peak
}

func (c *mergeCursor[B]) Close() error {
	if !c.closed {
		c.closed = true
		for _, in := range c.in {
			if cerr := in.Close(); c.err == nil {
				c.err = cerr
			}
		}
	}
	return c.err
}
