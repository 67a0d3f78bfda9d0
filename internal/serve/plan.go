package serve

import (
	"fmt"
	"math"
	"time"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/query"
	"vita/internal/storage"
)

// The serve operators execute as plans over internal/plan: each endpoint
// builds a logical operator tree, the planner pushes its structured filters
// into the scan's block predicate (which doubles as the index-cache key),
// and planSource routes the scan leaf through whichever load path the
// dataset is configured for — resident CSV rows, streaming CSV, cache-less
// segment cursors, or the decoded-block cache. The load paths, their stats
// accounting, and the answers they produce are byte-identical to the
// pre-algebra hand-coded operators; the algebra is what makes new analytics
// (Dwell) one plan expression instead of a new bespoke pipeline.

// planSource adapts one query's view of the dataset to plan.Source. It is
// single-use: Open is called once by the compiled plan's scan leaf, and
// finalStats reads the load accounting after the plan drains. For VTB
// datasets the caller pins a segment set for the query's duration and the
// source scans exactly that generation.
type planSource struct {
	d   *Dataset
	set *segmentSet // pinned by the caller; nil for CSV datasets

	cur          plan.TrajectoryCursor // the opened leaf cursor
	hits, misses int                   // block-cache lookups of the cached-VTB load
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

// Open selects the dataset's load path for pred. The stats semantics of
// each branch replicate the pre-plan implementations exactly.
func (s *planSource) Open(pred colstore.Predicate) (plan.TrajectoryCursor, error) {
	d := s.d
	var err error
	switch {
	case d.format == storage.FormatCSV && d.resident != nil:
		// Resident CSV: filter the resident rows, counting every row scanned.
		s.cur, err = plan.SliceSource{Samples: d.resident}.Open(pred)
	case d.format == storage.FormatCSV:
		// Streaming CSV (no cache budget): parse straight from disk.
		s.cur, _, err = storage.OpenTrajectoryCursor(d.path, pred)
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

// finalStats assembles the request's Stats after the plan has drained,
// matching each load path's historical accounting.
func (s *planSource) finalStats() Stats {
	d := s.d
	st := Stats{Format: string(d.format)}
	if s.cur == nil {
		return st
	}
	st.Scan = s.cur.Stats()
	if d.format != storage.FormatVTB {
		return st
	}
	if d.log != nil {
		st.Segments = len(s.set.segs)
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
	if p, ok := s.cur.(interface{ PeakDecodedBytes() int64 }); ok {
		st.PeakDecodedBytes = p.PeakDecodedBytes()
	}
	return st
}

// openCached is the cached-VTB load over the pinned segment set. Up front,
// per segment: prune by zone map, take what the cache holds, collect the
// misses; then decode all misses block-parallel and cache them. What it
// returns yields each surviving block as a batch — one cursor per segment,
// merged into global time order, or one cursor running through every segment
// when their surviving blocks' time ranges are strictly ascending, since the
// merge would then take the segments whole, one after the other.
func (s *planSource) openCached(pred colstore.Predicate) (plan.TrajectoryCursor, error) {
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
			all.stats.BlocksTotal += c.stats.BlocksTotal
			all.stats.BlocksPruned += c.stats.BlocksPruned
		}
		return all, nil
	}
	inputs := make([]storage.TrajectoryCursor, len(curs))
	for i, c := range curs {
		inputs[i] = c
	}
	return storage.NewTrajectoryMergeCursor(inputs), nil
}

// cachedCursor yields a run of decoded blocks held by the block cache, each
// as one batch of the rows matching pred. A block whose zone map lies wholly
// inside the predicate — or whose every row turns out to match — is the
// cached batch itself, untouched and uncopied; any other is filtered into
// the cursor's one scratch batch. Cached batches are shared, so nothing here
// writes to them.
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
func (c *cachedCursor) Close() error {
	c.next = len(c.blocks)
	return nil
}

// indexFor compiles a scan-and-filter plan over the dataset and resolves it
// to the spatio-temporal index of the matching samples. The plan's pushed-
// down scan predicate doubles as the index-cache key (generation-prefixed
// on segmented datasets, so an entry can never outlive the data it
// summarizes); on a miss the plan's batches stream into the index builder,
// so the cache-less configuration never materializes the matched rows —
// peak memory beyond the finished index is one decoded batch per segment,
// which is what Stats.PeakDecodedBytes approximates.
// With traced set, the returned span is "IndexCached" on a cache hit or an
// "IndexBuild" wrapping the plan's per-operator trace on a miss; untraced
// calls compile the plain (span-free) plan and return a nil span.
func (d *Dataset) indexFor(traced bool, preds ...plan.Pred) (*query.TrajectoryIndex, Stats, *obs.Span, error) {
	src, err := d.pinSource()
	if err != nil {
		return nil, Stats{Format: string(d.format)}, nil, err
	}
	defer src.release()
	p := plan.NewScan(src).Filter(preds...)
	var c *plan.Compiled
	if traced {
		c, err = p.CompileTraced()
	} else {
		c, err = p.Compile()
	}
	if err != nil {
		return nil, Stats{Format: string(d.format)}, nil, err
	}

	key := predKey(c.ScanPred(), d.qopts)
	if d.log != nil {
		key = fmt.Sprintf("g%d|%s", src.set.gen, key)
	}
	if d.idx != nil {
		if ix, ok := d.idx.get(key); ok {
			_ = c.Close()
			st := Stats{Format: string(d.format), IndexCached: true}
			if d.log != nil {
				st.Segments = len(src.set.segs)
			}
			var span *obs.Span
			if traced {
				span = &obs.Span{Op: "IndexCached", Rows: ix.Len()}
			}
			return ix, st, span, nil
		}
	}

	var span *obs.Span
	var start time.Time
	if traced {
		span = &obs.Span{Op: "IndexBuild", Children: []*obs.Span{c.Trace()}}
		start = time.Now()
	}
	b := query.NewIndexBuilder(d.qopts)
	var sampleBytes int64 // approximate bytes of the matched rows
	for c.Next() {
		batch := c.Batch().Traj
		sampleBytes += batch.Bytes()
		b.AddBatch(batch)
	}
	// Stats first so an error still reports the partial scan, like every
	// other load path.
	stats := src.finalStats()
	if err := c.Close(); err != nil {
		return nil, stats, span, err
	}
	ix := b.Build()
	if traced {
		span.AddWall(time.Since(start))
		span.Rows = ix.Len()
	}
	if d.idx != nil {
		// The index holds the samples in per-object series plus R-tree
		// nodes and bucket structure over them; 3x the raw sample bytes is
		// a conservative footprint estimate for the byte bound.
		d.idx.put(key, ix, 3*sampleBytes)
	}
	return ix, stats, span, nil
}

// runPlan compiles and drains an arbitrary plan over the dataset's current
// data — the execution path for operators that are pure algebra (Dwell)
// rather than index lookups. build receives the scan source to anchor the
// plan's leaf; the returned rows carry each output row's Val column.
// With traced set, the returned span is the plan's per-operator trace root
// (nil otherwise).
func (d *Dataset) runPlan(traced bool, build func(plan.Source) *plan.Plan) ([]plan.Row, Stats, *obs.Span, error) {
	src, err := d.pinSource()
	if err != nil {
		return nil, Stats{Format: string(d.format)}, nil, err
	}
	defer src.release()
	p := build(src)
	var c *plan.Compiled
	if traced {
		c, err = p.CompileTraced()
	} else {
		c, err = p.Compile()
	}
	if err != nil {
		return nil, Stats{Format: string(d.format)}, nil, err
	}
	rows, err := plan.CollectRows(c)
	stats := src.finalStats()
	if err != nil {
		return nil, stats, c.Trace(), err
	}
	return rows, stats, c.Trace(), nil
}
