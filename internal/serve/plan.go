package serve

import (
	"math"
	"runtime"
	"sync"
	"time"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/storage"
)

// The serve operators execute as plans over internal/plan: each endpoint
// builds a logical operator tree, the planner pushes its structured filters
// into the scan's block predicate, planSource opens the one cursor there is
// over the pinned segment set's blocks, and runPlan drains the result. There
// is no other execution path and no other load path: a new analytic is one
// plan expression, and the answers of the seven that exist are pinned against
// a brute-force oracle (see oracle_test.go and differential_test.go).

// planSource adapts one query's view of the dataset to plan.Source. It is
// single-use: Open is called once by the compiled plan's scan leaf, and
// finalStats reads the load accounting after the plan drains. The caller pins
// a segment set for the query's duration and the source scans exactly that
// generation.
type planSource struct {
	d   *Dataset
	set *segmentSet // pinned by the caller

	pred   colstore.Predicate
	window int                      // blocks a cursor fetches at a time
	cur    storage.TrajectoryCursor // the opened leaf: one blockCursor, or a merge of several

	hits, misses int // block-cache lookups, summed over the leaf's cursors
}

// pinSource returns a single-use scan source over the dataset's live segment
// set, which the caller must release.
func (d *Dataset) pinSource() (*planSource, error) {
	set := d.acquireSet()
	if set == nil {
		return nil, errClosed
	}
	return &planSource{d: d, set: set}, nil
}

// release unpins the source's segment set.
func (s *planSource) release() { s.set.release() }

// Open prunes every segment's blocks by zone map and returns the cursor over
// the survivors: one cursor per segment, merged into global time order — or
// one cursor running through every segment when their surviving blocks' time
// ranges are strictly ascending, since the merge would then take the
// segments whole, one after the other. Nothing is fetched or decoded here;
// an empty log is a cursor over no blocks.
func (s *planSource) Open(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	s.pred, s.window = pred, decodeWindow()
	segs := s.set.segs
	curs := make([]blockCursor, max(1, len(segs))) // a log with no segment yet still scans: nothing
	ascending, lastT1 := true, math.Inf(-1)
	for i, sg := range segs {
		c := &curs[i]
		c.stats.BlocksTotal = len(sg.zones)
		t0, t1 := math.Inf(1), math.Inf(-1)
		for j, zm := range sg.zones {
			if pred.SkipBlock(zm) {
				c.stats.BlocksPruned++
				continue
			}
			c.refs = append(c.refs, blockRef{sg, j})
			t0, t1 = min(t0, zm.T0), max(t1, zm.T1)
		}
		if len(c.refs) > 0 {
			ascending = ascending && t0 > lastT1
			lastT1 = t1
		}
	}
	if ascending {
		all := &curs[0]
		for _, c := range curs[1:] {
			all.refs = append(all.refs, c.refs...)
			all.stats = all.stats.Add(c.stats)
		}
		curs = curs[:1]
	}
	inputs := make([]storage.TrajectoryCursor, len(curs))
	for i := range curs {
		curs[i].src = s
		inputs[i] = &curs[i]
	}
	s.cur = storage.Merge(storage.Trajectory, inputs)
	return s.cur, nil
}

// finalStats assembles the request's Stats after the plan has drained.
func (s *planSource) finalStats() Stats {
	st := Stats{Format: string(s.d.format)}
	if s.d.log != nil {
		st.Segments = len(s.set.segs)
	}
	if s.cur == nil {
		return st // the plan never pulled from its scan (Limit(0))
	}
	st.Scan = s.cur.Stats()
	st.CacheHits, st.CacheMisses = s.hits, s.misses
	st.PeakDecodedBytes = s.cur.PeakDecodedBytes()
	return st
}

// decodeWindow is how many surviving blocks a cursor fetches at a time: two
// per processor, so a cold window's decodes fill every core while the window
// a request pins stays a small constant whatever it spans.
func decodeWindow() int { return 2 * runtime.GOMAXPROCS(0) }

// blockRef names one surviving block: which segment, which block.
type blockRef struct {
	sg    *segReader
	block int
}

// blockCursor is the one scan there is: it walks a run of zone-map survivors
// a window at a time. Each window is looked up in the block cache, its misses
// are decoded side by side and offered to the cache, and then every block is
// yielded as one batch of the rows matching pred. A block whose zone map lies
// wholly inside the predicate — or whose every row turns out to match — is
// the decoded batch itself, untouched and uncopied; any other is filtered
// into the cursor's one scratch batch. Decoded batches are shared with the
// cache, so nothing here writes to them. The cursor holds one window of
// blocks at a time whatever the cache's budget keeps; its peak is the most
// bytes one window decoded, 0 when every block was a hit.
type blockCursor struct {
	src  *planSource // the predicate, the window size, the cache and its accounting
	refs []blockRef  // surviving blocks, in scan order

	next   int                         // first ref not yet fetched
	at     []blockRef                  // the fetched window's refs
	win    []*colstore.TrajectoryBatch // and its blocks, one per ref
	missed []int                       // positions in win the cache did not hold
	pos    int                         // next block of win to yield

	cur   *colstore.TrajectoryBatch
	out   colstore.TrajectoryBatch // filtered copy of a partly matching block
	sel   []int32
	stats colstore.ScanStats
	err   error

	peak int64
}

// fetch makes the next window of surviving blocks the current one. The window
// scratch is the cursor's own and reused, so a window of hits allocates
// nothing.
func (c *blockCursor) fetch() error {
	cache := c.src.d.cache
	c.at = c.refs[c.next:min(c.next+c.src.window, len(c.refs))]
	c.next += len(c.at)
	if c.win == nil {
		c.win = make([]*colstore.TrajectoryBatch, min(c.src.window, len(c.refs)))
	}
	c.win, c.missed, c.pos = c.win[:len(c.at)], c.missed[:0], 0
	for i, ref := range c.at {
		b, ok := cache.Get(ref.sg.id, ref.block)
		if !ok {
			c.missed = append(c.missed, i)
		}
		c.win[i] = b
	}
	c.src.hits += len(c.at) - len(c.missed)
	c.src.misses += len(c.missed)
	if len(c.missed) == 0 {
		return nil
	}
	errs := make([]error, len(c.missed))
	decode := func(k int) {
		i := c.missed[k]
		ref := c.at[i]
		if c.win[i], errs[k] = ref.sg.tr.DecodeBlock(ref.block); errs[k] == nil {
			cache.Put(ref.sg.id, ref.block, c.win[i])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < len(c.missed); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode(k)
		}()
	}
	decode(0)
	wg.Wait()
	var decoded int64
	for k, i := range c.missed {
		if errs[k] != nil {
			return errs[k]
		}
		decoded += c.win[i].Bytes()
	}
	c.peak = max(c.peak, decoded)
	return nil
}

func (c *blockCursor) Next() bool {
	for c.err == nil && (c.pos < len(c.at) || c.next < len(c.refs)) {
		if c.pos == len(c.at) {
			if c.err = c.fetch(); c.err != nil {
				break
			}
		}
		ref, b := c.at[c.pos], c.win[c.pos]
		c.pos++
		c.stats.BlocksScanned++
		c.stats.RowsScanned += b.Len()
		if pred := c.src.pred; !pred.CoversBlock(ref.sg.zones[ref.block]) {
			c.sel = pred.SelectTrajectory(b, c.sel)
			if len(c.sel) < b.Len() {
				c.out.Gather(b, c.sel)
				b = &c.out
			}
		}
		if b.Len() == 0 {
			continue // zone map matched but no row did; pull the next block
		}
		c.stats.RowsMatched += b.Len()
		c.cur = b
		return true
	}
	return false
}

func (c *blockCursor) Batch() *colstore.TrajectoryBatch { return c.cur }
func (c *blockCursor) Err() error                       { return c.err }
func (c *blockCursor) Stats() colstore.ScanStats        { return c.stats }
func (c *blockCursor) PeakDecodedBytes() int64          { return c.peak }

func (c *blockCursor) Close() error {
	c.next, c.pos = len(c.refs), len(c.at)
	return c.err
}

// runPlan is how every operator executes: pin the dataset's current data,
// compile the plan build anchors on it, and hand each output batch to each (a
// batch is only valid during the call). It returns what the scan cost and,
// with traced set, the operator's root span — named op, timed from pin to
// drain, over the plan's per-operator span tree; the caller fills in its row
// count. Untraced calls compile the plain, span-free plan and return nil.
func (d *Dataset) runPlan(op string, traced bool, build func(plan.Source) *plan.Plan, each func(*plan.Batch)) (Stats, *obs.Span, error) {
	start := time.Now()
	src, err := d.pinSource()
	if err != nil {
		return Stats{Format: string(d.format)}, nil, err
	}
	defer src.release()
	var c *plan.Compiled
	if traced {
		c, err = build(src).CompileTraced()
	} else {
		c, err = build(src).Compile()
	}
	if err != nil {
		return Stats{Format: string(d.format)}, nil, err
	}
	for c.Next() {
		each(c.Batch())
	}
	// Stats before Close, so an error still reports the partial scan.
	stats := src.finalStats()
	err = c.Close()
	if !traced {
		return stats, nil, err
	}
	root := &obs.Span{Op: op, Children: []*obs.Span{c.Trace()}}
	root.AddWall(time.Since(start))
	return stats, root, err
}

// withRows records an operator's result cardinality on its root span, if it
// has one.
func withRows(span *obs.Span, rows int) *obs.Span {
	if span != nil {
		span.Rows = rows
	}
	return span
}
