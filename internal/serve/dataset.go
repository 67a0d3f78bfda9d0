// Package serve is the query-serving layer over generated datasets: it opens
// a dataset directory once, keeps the VTB footer (and hot decoded blocks)
// resident, and answers the vitaquery operators — range, knn, density, traj —
// repeatedly without paying cold-start per query. Server exposes the
// operators over HTTP with JSON responses; Client is the matching remote
// stub; vitaquery uses Dataset directly for local one-shot queries, so both
// paths share one execution and formatting pipeline.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/query"
	"vita/internal/seglog"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// errClosed is returned by queries racing Close.
var errClosed = errors.New("serve: dataset closed")

// Config tunes an opened dataset. The zero value selects the defaults.
type Config struct {
	// Query is the spatio-temporal index layout (bucket width, max
	// interpolation gap). Zero fields take query.DefaultOptions values.
	Query query.Options
	// Parallelism is the block-decode worker count (0 = GOMAXPROCS, 1 =
	// sequential).
	Parallelism int
	// CacheBytes bounds the decoded-block LRU cache (default 64 MiB;
	// negative disables caching).
	CacheBytes int64
	// IndexEntries bounds the per-predicate index cache by entry count
	// (default 16; negative disables it).
	IndexEntries int
	// IndexBytes bounds the per-predicate index cache by approximate
	// resident bytes, since a single wide-predicate index can hold a copy
	// of the whole dataset (default 256 MiB; negative caches indexes
	// regardless of size, bounded only by IndexEntries).
	IndexBytes int64
	// DisableMmap forces the pread path for VTB files instead of the
	// default memory-mapped reader — the -mmap=false escape hatch.
	DisableMmap bool
	// WatchInterval is how often a segmented dataset polls its manifest for
	// new generations (default 1s; negative disables the watcher, leaving
	// refreshes to explicit Refresh calls). Ignored for single-file and CSV
	// datasets, which never change underneath the server.
	WatchInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.IndexEntries == 0 {
		c.IndexEntries = 16
	}
	if c.IndexBytes == 0 {
		c.IndexBytes = 256 << 20
	}
	if c.WatchInterval == 0 {
		c.WatchInterval = time.Second
	}
	return c
}

// Dataset is an opened trajectory dataset ready to answer queries. VTB data
// is served through a segment set (see segments.go): a single trajectory.vtb
// is one static segment, a seglog directory is however many segments its
// manifest currently lists, with a watcher folding in new generations as a
// writer appends or a compactor merges. Zone maps stay resident per segment
// and decoded blocks are cached across refreshes; CSV files keep the rows
// themselves resident (the format has no block structure to cache). Safe for
// concurrent use.
type Dataset struct {
	dir         string
	path        string
	format      storage.Format
	disableMmap bool

	log *seglog.Log // segmented VTB only

	mu  sync.Mutex      // guards cur and man
	cur *segmentSet     // VTB only; nil after Close
	man seglog.Manifest // last adopted manifest (segmented only)

	resident []trajectory.Sample // CSV only

	cache *BlockCache
	idx   *indexCache
	par   int
	qopts query.Options

	refreshMu  sync.Mutex // serializes Refresh
	refreshes  atomic.Int64
	blockInval atomic.Int64
	idxInval   atomic.Int64

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
}

// Open opens the trajectory data in dir and prepares it for serving. A
// segment log — dir itself, or the pipeline's seglog/trajectory subdirectory
// — takes priority, since a log next to a flat file means the dataset is
// live; otherwise trajectory.vtb (preferred) or trajectory.csv, detected by
// magic bytes.
func Open(dir string, cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	d := &Dataset{
		dir:         dir,
		par:         cfg.Parallelism,
		qopts:       cfg.Query,
		disableMmap: cfg.DisableMmap,
	}
	if cfg.CacheBytes > 0 {
		d.cache = NewBlockCache(cfg.CacheBytes)
	}
	if cfg.IndexEntries > 0 {
		d.idx = newIndexCache(cfg.IndexEntries, cfg.IndexBytes)
	}

	logDir := ""
	if seglog.IsLog(dir) {
		logDir = dir
	} else if p := filepath.Join(dir, "seglog", "trajectory"); seglog.IsLog(p) {
		logDir = p
	}
	if logDir != "" {
		return openSegmented(d, logDir, cfg)
	}

	var path string
	for _, name := range []string{"trajectory.vtb", "trajectory.csv"} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			path = p
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("serve: no segment log, trajectory.vtb, or trajectory.csv in %s", dir)
	}
	format, err := storage.DetectFormat(path)
	if err != nil {
		return nil, err
	}
	d.path = path
	d.format = format
	if format == storage.FormatVTB {
		tr, err := colstore.OpenTrajectoryOptions(path, colstore.OpenOptions{DisableMmap: cfg.DisableMmap})
		if err != nil {
			return nil, err
		}
		sg := &segReader{id: 0, tr: tr, zones: tr.Blocks()}
		sg.refs.Store(1)
		d.cur = newSegmentSet(0, []*segReader{sg})
	} else if d.cache != nil {
		// CSV has no block structure to cache, so "warm" means the rows
		// themselves stay resident. Without a cache budget (one-shot CLI
		// use) every load streams from disk instead — see Samples.
		samples, _, err := storage.ReadTrajectoryFile(path)
		if err != nil {
			return nil, err
		}
		d.resident = samples
	}
	return d, nil
}

// openSegmented finishes Open for a segment-log dataset: open the current
// generation's readers and start the manifest watcher.
func openSegmented(d *Dataset, logDir string, cfg Config) (*Dataset, error) {
	l, err := seglog.Open(logDir)
	if err != nil {
		return nil, err
	}
	if l.Kind() != colstore.KindTrajectory {
		return nil, fmt.Errorf("serve: %s is a %s log, want trajectory", logDir, l.Kind())
	}
	d.log = l
	d.path = filepath.Join(logDir, seglog.ManifestName)
	d.format = storage.FormatVTB
	man := l.Snapshot()
	set, err := d.buildSet(man, nil)
	if err != nil {
		return nil, err
	}
	d.cur = set
	d.man = man
	if cfg.WatchInterval > 0 {
		d.stopWatch = make(chan struct{})
		d.watchWG.Add(1)
		go d.watch(cfg.WatchInterval)
	}
	return d, nil
}

// Close stops the manifest watcher and releases the dataset's hold on its
// segment readers; readers of in-flight queries close as those queries drain.
func (d *Dataset) Close() error {
	if d.stopWatch != nil {
		close(d.stopWatch)
		d.watchWG.Wait()
		d.stopWatch = nil
	}
	d.mu.Lock()
	set := d.cur
	d.cur = nil
	d.mu.Unlock()
	if set != nil {
		set.release()
	}
	return nil
}

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// Path returns the trajectory file the dataset serves.
func (d *Dataset) Path() string { return d.path }

// Format returns the detected storage format.
func (d *Dataset) Format() storage.Format { return d.format }

// Blocks returns the number of blocks across a VTB dataset's live segments
// (0 for CSV).
func (d *Dataset) Blocks() int {
	set := d.acquireSet()
	if set == nil {
		return 0
	}
	defer set.release()
	n := 0
	for _, sg := range set.segs {
		n += len(sg.zones)
	}
	return n
}

// Mmapped reports whether a VTB dataset decodes blocks from memory-mapped
// regions — true when every live segment mapped (always false for CSV
// datasets and on the pread fallback).
func (d *Dataset) Mmapped() bool {
	set := d.acquireSet()
	if set == nil {
		return false
	}
	defer set.release()
	if len(set.segs) == 0 {
		return false
	}
	for _, sg := range set.segs {
		if !sg.tr.Mmapped() {
			return false
		}
	}
	return true
}

// Len returns the total number of samples without decoding anything (VTB:
// from the footers). A CSV dataset opened without a cache budget streams from
// disk and has no resident count; Len then returns 0.
func (d *Dataset) Len() int {
	if d.format == storage.FormatCSV {
		return len(d.resident)
	}
	set := d.acquireSet()
	if set == nil {
		return 0
	}
	defer set.release()
	n := 0
	for _, sg := range set.segs {
		n += sg.tr.Len()
	}
	return n
}

// Segments returns how many live segments the dataset currently serves (0
// for single-file and CSV datasets, which are not segmented).
func (d *Dataset) Segments() int {
	if d.log == nil {
		return 0
	}
	set := d.acquireSet()
	if set == nil {
		return 0
	}
	defer set.release()
	return len(set.segs)
}

// Generation returns the manifest generation being served (0 when not
// segmented).
func (d *Dataset) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil || d.cur == nil {
		return 0
	}
	return d.cur.gen
}

// Compactions returns how many compactions the served manifest records.
func (d *Dataset) Compactions() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.man.Compactions
}

// Refreshes returns how many manifest generations the dataset has folded in.
func (d *Dataset) Refreshes() int64 { return d.refreshes.Load() }

// BlockInvalidations returns how many cached blocks refreshes have dropped
// because their segment left the live set.
func (d *Dataset) BlockInvalidations() int64 { return d.blockInval.Load() }

// IndexInvalidations returns how many cached indexes refreshes have dropped.
func (d *Dataset) IndexInvalidations() int64 { return d.idxInval.Load() }

// SegLog returns the underlying segment log, or nil when the dataset is a
// single file. vitaserve uses it to run an in-process compactor under the
// single-mutator rule.
func (d *Dataset) SegLog() *seglog.Log { return d.log }

// CacheStats returns the block-cache counters (zero value when caching is
// disabled or the dataset is CSV).
func (d *Dataset) CacheStats() CacheStats {
	if d.cache == nil {
		return CacheStats{}
	}
	return d.cache.Stats()
}

// Samples returns the samples matching pred in global time order (the order
// a single file holding the same rows carries), along with what the load
// cost. It drains the scan leaf every operator's plan sits on (planSource),
// so rows, order and stats are those of a served query: VTB datasets prune
// via zone maps per segment, serve hot blocks from the cache, decode misses
// block-parallel, and merge multi-segment results; CSV datasets filter the
// resident rows. With caching disabled both formats stream instead — one
// block (or CSV batch) in flight per segment, nothing unfiltered retained —
// so one-shot callers like vitaquery keep the memory profile of a plain scan.
func (d *Dataset) Samples(pred colstore.Predicate) ([]trajectory.Sample, Stats, error) {
	src, err := d.pinSource()
	if err != nil {
		return nil, Stats{Format: string(d.format)}, err
	}
	defer src.release()
	cur, err := src.Open(pred)
	if err != nil {
		return nil, src.finalStats(), err
	}
	var out []trajectory.Sample
	for cur.Next() {
		out = cur.Batch().AppendTo(out)
	}
	stats := src.finalStats()
	return out, stats, cur.Close()
}

// blockRef names one block to decode: which segment, which block, and the
// cursor slot the decoded batch lands in.
type blockRef struct {
	sg    *segReader
	block int
	cur   *cachedCursor
	j     int // destination: cur.blocks[j]
}

// decodeMisses decodes the missing blocks into their cursor slots using up to
// d.par workers, inserting each into the cache under its segment's ID.
func (d *Dataset) decodeMisses(misses []blockRef) error {
	decode := func(ref blockRef) error {
		decoded, err := ref.sg.tr.DecodeBlockBatch(ref.block)
		if err != nil {
			return err
		}
		ref.cur.blocks[ref.j] = decoded
		d.cache.Put(ref.sg.id, ref.block, decoded)
		return nil
	}
	workers := d.par
	if workers > len(misses) {
		workers = len(misses)
	}
	if workers <= 1 {
		for _, ref := range misses {
			if err := decode(ref); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(misses); k += workers {
				if err := decode(misses[k]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// predKey canonicalizes a predicate + index options into a cache key.
// Identical keys imply identical matched samples and hence identical
// indexes, so index-cache hits cannot change any answer.
func predKey(p colstore.Predicate, o query.Options) string {
	return fmt.Sprintf("t:%v,%g,%g|f:%v,%d|b:%v,%g,%g,%g,%g|o:%v,%d|q:%g,%g",
		p.HasTime, p.T0, p.T1, p.HasFloor, p.Floor,
		p.HasBox, p.Box.Min.X, p.Box.Min.Y, p.Box.Max.X, p.Box.Max.Y,
		p.HasObj, p.Obj, o.BucketWidth, o.MaxGap)
}

// opTrace assembles an operator's root span: total wall time, the
// index-build (or plan) subtree, and the index-probe phase. When off, every
// method is a no-op and finish returns nil, so untraced requests carry no
// trace machinery at all.
type opTrace struct {
	on         bool
	op         string
	start      time.Time
	probeStart time.Time
}

func newOpTrace(on bool, op string) opTrace {
	t := opTrace{on: on, op: op}
	if on {
		t.start = time.Now()
	}
	return t
}

// startProbe marks the beginning of the index-probe phase (after the index
// is built or fetched).
func (t *opTrace) startProbe() {
	if t.on {
		t.probeStart = time.Now()
	}
}

// finish builds the root span over the child subtree (index build or plan
// trace); rows is the operator's result cardinality.
func (t *opTrace) finish(child *obs.Span, rows int) *obs.Span {
	if !t.on {
		return nil
	}
	root := &obs.Span{Op: t.op, Rows: rows}
	if child != nil {
		root.Children = append(root.Children, child)
	}
	if !t.probeStart.IsZero() {
		probe := &obs.Span{Op: "IndexProbe", Rows: rows}
		probe.AddWall(time.Since(t.probeStart))
		root.Children = append(root.Children, probe)
	}
	root.AddWall(time.Since(t.start))
	return root
}

// Range answers a range query: the samples inside the box/floor/window and
// the distinct objects among them. The plan's time/box/floor filters all
// push down into the scan predicate, so the pre-index load prunes blocks
// exactly as the hand-built predicate did.
func (d *Dataset) Range(q RangeRequest) (*RangeResponse, error) {
	t := newOpTrace(q.Trace, "Range")
	preds := []plan.Pred{plan.TimeBetween(q.T0, q.T1), plan.InBox(q.Box)}
	if q.Floor >= 0 {
		preds = append(preds, plan.OnFloor(q.Floor))
	}
	ix, stats, buildSpan, err := d.indexFor(q.Trace, preds...)
	if err != nil {
		return nil, err
	}
	t.startProbe()
	hits := ix.Range(q.Floor, q.Box, q.T0, q.T1)
	seen := make(map[int]bool)
	for _, s := range hits {
		seen[s.ObjID] = true
	}
	objs := make([]int, 0, len(seen))
	for id := range seen {
		objs = append(objs, id)
	}
	sort.Ints(objs)
	resp := &RangeResponse{Query: q, Hits: hits, Objects: objs, Stats: stats}
	resp.Trace = t.finish(buildSpan, len(hits))
	return resp, nil
}

// KNN answers a k-nearest-neighbors query at an instant. Like the CLI, it
// loads only the samples within MaxGap of T so interpolation still sees its
// bracketing samples, and leaves floor filtering to the operator.
func (d *Dataset) KNN(q KNNRequest) (*KNNResponse, error) {
	t := newOpTrace(q.Trace, "KNN")
	opts := d.queryOptions()
	ix, stats, buildSpan, err := d.indexFor(q.Trace, plan.TimeBetween(q.T-opts.MaxGap, q.T+opts.MaxGap))
	if err != nil {
		return nil, err
	}
	t.startProbe()
	neighbors := ix.KNN(q.Floor, q.At, q.T, q.K)
	resp := &KNNResponse{Query: q, Neighbors: neighbors, Stats: stats}
	resp.Trace = t.finish(buildSpan, len(neighbors))
	return resp, nil
}

// Density answers a per-partition snapshot density query at an instant.
func (d *Dataset) Density(q DensityRequest) (*DensityResponse, error) {
	t := newOpTrace(q.Trace, "Density")
	opts := d.queryOptions()
	ix, stats, buildSpan, err := d.indexFor(q.Trace, plan.TimeBetween(q.T-opts.MaxGap, q.T+opts.MaxGap))
	if err != nil {
		return nil, err
	}
	t.startProbe()
	counts := ix.Density(q.T)
	resp := &DensityResponse{Query: q, Counts: counts, Stats: stats}
	resp.Trace = t.finish(buildSpan, len(counts))
	return resp, nil
}

// Traj answers a trajectory-retrieval query for one object.
func (d *Dataset) Traj(q TrajRequest) (*TrajResponse, error) {
	t := newOpTrace(q.Trace, "Traj")
	ix, stats, buildSpan, err := d.indexFor(q.Trace, plan.ObjEq(q.Obj), plan.TimeBetween(q.T0, q.T1))
	if err != nil {
		return nil, err
	}
	t.startProbe()
	samples := ix.ObjectTrajectory(q.Obj, q.T0, q.T1)
	resp := &TrajResponse{Query: q, Samples: samples, Stats: stats}
	resp.Trace = t.finish(buildSpan, len(samples))
	return resp, nil
}

// Dwell answers dwell-time-per-room: for every partition, the total seconds
// objects spent in it during the window, and how many distinct objects were
// seen there. Unlike the other operators it is pure plan algebra — no
// spatio-temporal index — composed exactly as a user of the plan package
// would write it: filter the window (pushed down to block pruning), order
// by (object, time), derive per-row dwell gaps, aggregate per (partition,
// object), then roll up per partition summing seconds and counting the
// distinct objects.
func (d *Dataset) Dwell(q DwellRequest) (*DwellResponse, error) {
	opts := d.queryOptions()
	preds := []plan.Pred{plan.TimeBetween(q.T0, q.T1)}
	if q.Floor >= 0 {
		preds = append(preds, plan.OnFloor(q.Floor))
	}
	t := newOpTrace(q.Trace, "Dwell")
	rows, stats, planSpan, err := d.runPlan(q.Trace, func(src plan.Source) *plan.Plan {
		return plan.NewScan(src).
			Filter(preds...).
			OrderBy(plan.Asc(plan.ColObjID), plan.Asc(plan.ColT)).
			Derive(plan.DwellGaps(opts.MaxGap)).
			Aggregate(plan.By(plan.ColPartition, plan.ColObjID), plan.Sum(plan.ColVal, plan.ColVal)).
			Aggregate(plan.By(plan.ColPartition), plan.Sum(plan.ColVal, plan.ColVal), plan.CountInto(plan.ColObjID))
	})
	if err != nil {
		return nil, err
	}
	rooms := make([]DwellRoom, 0, len(rows))
	for _, r := range rows {
		rooms = append(rooms, DwellRoom{
			Partition: r.Sample.Loc.Partition,
			Seconds:   r.Val,
			Objects:   r.Sample.ObjID,
		})
	}
	// Longest-dwelled room first; name breaks ties, so output is stable.
	sort.SliceStable(rooms, func(i, j int) bool {
		if rooms[i].Seconds != rooms[j].Seconds {
			return rooms[i].Seconds > rooms[j].Seconds
		}
		return rooms[i].Partition < rooms[j].Partition
	})
	resp := &DwellResponse{Query: q, Rooms: rooms, Stats: stats}
	resp.Trace = t.finish(planSpan, len(rooms))
	return resp, nil
}

// Info summarizes the dataset. With trace set the response carries the
// span tree of the full-dataset index build behind the summary.
func (d *Dataset) Info(trace bool) (*InfoResponse, error) {
	t := newOpTrace(trace, "Info")
	ix, stats, buildSpan, err := d.indexFor(trace)
	if err != nil {
		return nil, err
	}
	t0, t1, ok := ix.TimeSpan()
	bounds, _ := ix.Bounds()
	resp := &InfoResponse{
		Samples: ix.Len(),
		Objects: len(ix.Objects()),
		Floors:  ix.Floors(),
		T0:      t0,
		T1:      t1,
		Bounds:  bounds,
		Empty:   !ok,
		Stats:   stats,
	}
	resp.Trace = t.finish(buildSpan, ix.Len())
	return resp, nil
}

// queryOptions returns the effective index options with defaults applied,
// so MaxGap-derived predicates match what the index itself will use.
func (d *Dataset) queryOptions() query.Options {
	o := d.qopts
	if o.BucketWidth <= 0 {
		o.BucketWidth = query.DefaultOptions().BucketWidth
	}
	if o.MaxGap <= 0 {
		o.MaxGap = query.DefaultOptions().MaxGap
	}
	return o
}

// indexCache is a small LRU of built spatio-temporal indexes keyed by
// canonical predicate, bounded both by entry count and by approximate
// resident bytes — a wide predicate (empty, or a full-window range) builds
// an index over a copy of the whole dataset, so a count bound alone would
// leave daemon memory unbounded. One warm entry turns a repeated query into
// pure index lookup — no block reads at all.
type indexCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64 // <= 0: no byte bound
	bytes    int64
	order    []string // front = most recently used
	entries  map[string]indexEntry
}

type indexEntry struct {
	ix    *query.TrajectoryIndex
	bytes int64
}

func newIndexCache(max int, maxBytes int64) *indexCache {
	return &indexCache{max: max, maxBytes: maxBytes, entries: make(map[string]indexEntry)}
}

func (c *indexCache) get(key string) (*query.TrajectoryIndex, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.touch(key)
	}
	return e.ix, ok
}

// put inserts an index whose resident footprint is approximately bytes,
// evicting LRU entries until both bounds hold. An index larger than the
// whole byte budget is not cached at all.
func (c *indexCache) put(key string, ix *query.TrajectoryIndex, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && bytes > c.maxBytes {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.bytes
		c.touch(key)
	} else {
		c.order = append([]string{key}, c.order...)
	}
	c.entries[key] = indexEntry{ix: ix, bytes: bytes}
	c.bytes += bytes
	for len(c.order) > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		last := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		c.bytes -= c.entries[last].bytes
		delete(c.entries, last)
	}
}

// touch moves key to the front of the recency order. Callers hold mu.
func (c *indexCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = key
			return
		}
	}
}

func (c *indexCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// clear drops every entry, returning how many there were. Refresh calls it
// when the dataset moves to a new manifest generation: the entries' keys
// name the old generation and will never be asked for again.
func (c *indexCache) clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]indexEntry)
	c.order = nil
	c.bytes = 0
	return n
}
