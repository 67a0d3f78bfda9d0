package serve

import (
	"math"
	"time"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/storage"
)

// The serve operators execute as plans over internal/plan: each endpoint
// builds a logical operator tree, the planner pushes its structured filters
// into the scan's block predicate, planSource routes the scan leaf through
// whichever load path the dataset is configured for — resident CSV rows,
// cache-less segment cursors, or the decoded-block cache — and runPlan drains
// the result. There is no other execution path: a new analytic is one plan
// expression, and the answers of the six that exist are pinned against the
// in-memory index of internal/query (see differential_test.go).

// planSource adapts one query's view of the dataset to plan.Source. It is
// single-use: Open is called once by the compiled plan's scan leaf, and
// finalStats reads the load accounting after the plan drains. For VTB
// datasets the caller pins a segment set for the query's duration and the
// source scans exactly that generation.
type planSource struct {
	d   *Dataset
	set *segmentSet // pinned by the caller; nil for CSV datasets

	cur          storage.TrajectoryCursor // the opened leaf cursor
	hits, misses int                      // block-cache lookups of the cached-VTB load
}

// pinSource returns a single-use scan source over the dataset's current data:
// for VTB it pins the live segment set, which the caller must release.
func (d *Dataset) pinSource() (*planSource, error) {
	src := &planSource{d: d}
	if d.format != storage.FormatCSV {
		if src.set = d.acquireSet(); src.set == nil {
			return nil, errClosed
		}
	}
	return src, nil
}

// release unpins the source's segment set.
func (s *planSource) release() {
	if s.set != nil {
		s.set.release()
	}
}

// Open selects the dataset's load path for pred.
func (s *planSource) Open(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	d := s.d
	var err error
	switch {
	case d.format == storage.FormatCSV:
		// CSV: filter the resident rows, counting every row scanned.
		s.cur, err = plan.SliceSource{Samples: d.resident}.Open(pred)
	case d.cache == nil:
		// Cache-less VTB: stream the pinned segment set's blocks, merged
		// across segments — one decoded batch per segment in flight.
		s.cur = segmentCursor(s.set, pred)
	default:
		// Cached VTB: zone-map prune, pull hot blocks, decode misses
		// block-parallel, then serve the cached batches themselves.
		s.cur, err = s.openCached(pred)
	}
	if err != nil {
		s.cur = nil
	}
	return s.cur, err
}

// finalStats assembles the request's Stats after the plan has drained.
func (s *planSource) finalStats() Stats {
	d := s.d
	st := Stats{Format: string(d.format)}
	if d.log != nil {
		st.Segments = len(s.set.segs)
	}
	if s.cur == nil {
		return st // the plan never pulled from its scan (Limit(0))
	}
	st.Scan = s.cur.Stats()
	if d.format != storage.FormatVTB {
		return st
	}
	if d.cache != nil {
		st.CacheHits, st.CacheMisses = s.hits, s.misses
		return st
	}
	// Every scanned block was a decode on the cache-less path; keep the
	// misses-equal-decodes invariant the cached path maintains.
	st.CacheMisses = st.Scan.BlocksScanned
	// Peak comes from the cursor, which measures each batch before
	// predicate filtering — the full decoded block is what was
	// transiently resident, however few rows survived.
	st.PeakDecodedBytes = s.cur.PeakDecodedBytes()
	return st
}

// openCached is the cached-VTB load over the pinned segment set. Up front,
// per segment: prune by zone map, take what the cache holds, collect the
// misses; then decode all misses block-parallel and cache them. What it
// returns yields each surviving block as a batch — one cursor per segment,
// merged into global time order, or one cursor running through every segment
// when their surviving blocks' time ranges are strictly ascending, since the
// merge would then take the segments whole, one after the other.
func (s *planSource) openCached(pred colstore.Predicate) (storage.TrajectoryCursor, error) {
	d := s.d
	curs := make([]*cachedCursor, len(s.set.segs))
	var misses []blockRef
	for si, sg := range s.set.segs {
		c := &cachedCursor{pred: pred, stats: colstore.ScanStats{BlocksTotal: len(sg.zones)}}
		curs[si] = c
		for i, zm := range sg.zones {
			if pred.SkipBlock(zm) {
				c.stats.BlocksPruned++
				continue
			}
			cached, ok := d.cache.Get(sg.id, i)
			if ok {
				s.hits++
			} else {
				misses = append(misses, blockRef{sg: sg, block: i, cur: c, j: len(c.blocks)})
			}
			c.blocks = append(c.blocks, cached)
			c.zones = append(c.zones, zm)
		}
	}
	s.misses = len(misses)
	if err := d.decodeMisses(misses); err != nil {
		return nil, err
	}

	if len(curs) == 1 {
		return curs[0], nil
	}
	ascending := true
	lastT1 := math.Inf(-1)
	for _, c := range curs {
		if len(c.zones) == 0 {
			continue
		}
		t0, t1 := c.timeRange()
		if !(t0 > lastT1) {
			ascending = false
			break
		}
		lastT1 = t1
	}
	if ascending {
		all := curs[0]
		for _, c := range curs[1:] {
			all.blocks = append(all.blocks, c.blocks...)
			all.zones = append(all.zones, c.zones...)
			all.stats = all.stats.Add(c.stats)
		}
		return all, nil
	}
	inputs := make([]storage.TrajectoryCursor, len(curs))
	for i, c := range curs {
		inputs[i] = c
	}
	return storage.Merge(storage.Trajectory, inputs), nil
}

// cachedCursor yields a run of decoded blocks held by the block cache, each
// as one batch of the rows matching pred. A block whose zone map lies wholly
// inside the predicate — or whose every row turns out to match — is the
// cached batch itself, untouched and uncopied; any other is filtered into
// the cursor's one scratch batch. Cached batches are shared, so nothing here
// writes to them. The cursor decodes nothing — the misses were decoded before
// it was built — so its peak is 0.
type cachedCursor struct {
	pred   colstore.Predicate
	blocks []*colstore.TrajectoryBatch // surviving blocks, in scan order
	zones  []colstore.ZoneMap          // their zone maps
	next   int
	cur    *colstore.TrajectoryBatch
	out    colstore.TrajectoryBatch // filtered copy of a partly matching block
	sel    []int32
	stats  colstore.ScanStats
}

// timeRange returns the span of the surviving blocks' zone-map time bounds.
func (c *cachedCursor) timeRange() (t0, t1 float64) {
	t0, t1 = math.Inf(1), math.Inf(-1)
	for _, zm := range c.zones {
		t0, t1 = min(t0, zm.T0), max(t1, zm.T1)
	}
	return t0, t1
}

func (c *cachedCursor) Next() bool {
	for c.next < len(c.blocks) {
		b, zm := c.blocks[c.next], c.zones[c.next]
		c.next++
		c.stats.BlocksScanned++
		c.stats.RowsScanned += b.Len()
		if !c.pred.CoversBlock(zm) {
			c.sel = c.pred.SelectTrajectory(b, c.sel)
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

func (c *cachedCursor) Batch() *colstore.TrajectoryBatch { return c.cur }
func (c *cachedCursor) Err() error                       { return nil }
func (c *cachedCursor) Stats() colstore.ScanStats        { return c.stats }
func (c *cachedCursor) PeakDecodedBytes() int64          { return 0 }
func (c *cachedCursor) Close() error {
	c.next = len(c.blocks)
	return nil
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
