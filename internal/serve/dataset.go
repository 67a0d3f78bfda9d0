// Package serve is the query-serving layer over generated datasets: it opens
// a dataset directory once, keeps the VTB footer (and hot decoded blocks)
// resident, and answers the vitaquery operators — range, knn, density, traj,
// dwell, info, watch — repeatedly without paying cold-start per query. Every
// dataset is a set of VTB block segments (a CSV file is converted once, in
// memory, at open) and every operator is a plan over internal/plan, compiled
// and drained by one helper (runPlan) on top of one scan leaf (planSource)
// and its one block cursor; nothing is built or kept per request. Server
// exposes the operators over HTTP with JSON responses; Client is the matching
// remote stub; vitaquery uses Dataset directly for local one-shot queries, so
// both paths share one execution and formatting pipeline.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/plan"
	"vita/internal/seglog"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// errClosed is returned by queries racing Close.
var errClosed = errors.New("serve: dataset closed")

// DefaultMaxGap is Config.MaxGap's default, in seconds.
const DefaultMaxGap = 10

// Config tunes an opened dataset. The zero value selects the defaults.
type Config struct {
	// MaxGap is the maximum seconds between consecutive samples across which
	// instant queries (knn, density) still interpolate a position, and dwell
	// still credits the interval (default DefaultMaxGap).
	MaxGap float64
	// CacheBytes bounds the decoded-block LRU cache (default 64 MiB;
	// negative keeps nothing: every lookup misses, and a scan still decodes
	// a window of blocks at a time).
	CacheBytes int64
	// WatchInterval is how often a segmented dataset polls its manifest for
	// new generations (default 1s; negative disables the watcher, leaving
	// refreshes to explicit Refresh calls). Ignored for single-file and CSV
	// datasets, which never change underneath the server.
	WatchInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxGap <= 0 {
		c.MaxGap = DefaultMaxGap
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.WatchInterval == 0 {
		c.WatchInterval = time.Second
	}
	return c
}

// Dataset is an opened trajectory dataset ready to answer queries. All data
// is served through a segment set (see segments.go): a single trajectory.vtb
// is one static segment, a trajectory.csv is one static segment holding the
// file's rows re-encoded as an in-memory VTB image, a seglog directory is
// however many segments its manifest currently lists, with a watcher folding
// in new generations as a writer appends or a compactor merges. Zone maps
// stay resident per segment and decoded blocks are cached across refreshes.
// Safe for concurrent use.
type Dataset struct {
	dir    string
	path   string
	format storage.Format

	log *seglog.Log // segmented only

	mu  sync.Mutex      // guards cur and man
	cur *segmentSet     // nil after Close
	man seglog.Manifest // last adopted manifest (segmented only)

	cache  *BlockCache
	maxGap float64

	refreshMu  sync.Mutex // serializes Refresh
	refreshes  atomic.Int64
	blockInval atomic.Int64

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
		dir:    dir,
		cache:  NewBlockCache(max(cfg.CacheBytes, 0)),
		maxGap: cfg.MaxGap,
	}

	logDir := ""
	if seglog.IsLog(dir) {
		logDir = dir
	} else if p := seglog.LogDir(dir, colstore.KindTrajectory); seglog.IsLog(p) {
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
	var tr *colstore.TrajectoryReader
	if format == storage.FormatVTB {
		tr, err = colstore.OpenTrajectory(path)
	} else {
		tr, err = csvAsVTB(path)
	}
	if err != nil {
		return nil, err
	}
	sg := &segReader{id: 0, tr: tr, zones: tr.Blocks()}
	sg.refs.Store(1)
	d.cur = newSegmentSet(0, []*segReader{sg})
	return d, nil
}

// csvAsVTB reads a trajectory CSV once and returns its rows, in file order,
// as a reader over an in-memory VTB image: CSV has no block structure of its
// own, and this gives it the zone maps and cacheable blocks every other
// dataset is served from.
func csvAsVTB(path string) (*colstore.TrajectoryReader, error) {
	cur, _, err := storage.OpenCursor(storage.Trajectory, path, colstore.Predicate{})
	if err != nil {
		return nil, err
	}
	var image bytes.Buffer
	if _, err := storage.Copy(cur, colstore.NewTrajectoryWriter(&image, colstore.Options{})); err != nil {
		return nil, err
	}
	return colstore.NewTrajectoryReader(image.Bytes())
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
	man, set, err := d.buildCurrent(l.Snapshot(), nil)
	if err != nil {
		return nil, err
	}
	d.cur = set
	d.man = man
	if cfg.WatchInterval > 0 {
		d.stopWatch = make(chan struct{})
		d.watchWG.Add(1)
		go d.poll(cfg.WatchInterval)
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

// Path returns the trajectory file the dataset serves.
func (d *Dataset) Path() string { return d.path }

// Format returns the detected storage format.
func (d *Dataset) Format() storage.Format { return d.format }

// Blocks returns the number of blocks across the dataset's live segments.
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

// Len returns the total number of samples without decoding anything, from
// the segments' footers.
func (d *Dataset) Len() int {
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

// SegLog returns the underlying segment log, or nil when the dataset is a
// single file. vitaserve uses it to run an in-process compactor under the
// single-mutator rule.
func (d *Dataset) SegLog() *seglog.Log { return d.log }

// CacheStats returns the block-cache counters.
func (d *Dataset) CacheStats() CacheStats { return d.cache.Stats() }

// hasPoint keeps coordinate rows; kNN measures distance, which a symbolic
// location does not have.
var hasPoint = plan.Where(func(s trajectory.Sample) bool { return s.Loc.HasPoint })

// inPartition keeps rows that name a partition, the key density counts by.
var inPartition = plan.Where(func(s trajectory.Sample) bool { return s.Loc.Partition != "" })

// Range answers a range query: the samples inside the box/floor/window,
// ordered by (object, time) with ties in scan order, and the distinct objects
// among them. The time/box/floor filters all push down into the scan
// predicate, so zone maps prune blocks before anything is decoded.
func (d *Dataset) Range(q RangeRequest) (*RangeResponse, error) {
	preds := []plan.Pred{plan.TimeBetween(q.T0, q.T1), plan.InBox(q.Box)}
	if q.Floor >= 0 {
		preds = append(preds, plan.OnFloor(q.Floor))
	}
	var hits []trajectory.Sample
	stats, span, err := d.runPlan("Range", q.Trace, func(src plan.Source) *plan.Plan {
		return plan.NewScan(src).Filter(preds...).
			OrderBy(plan.Asc(plan.ColObjID), plan.Asc(plan.ColT))
	}, func(b *plan.Batch) { hits = b.Traj.AppendTo(slices.Grow(hits, b.Traj.Len())) })
	if err != nil {
		return nil, err
	}
	objs := []int{}
	for i, s := range hits {
		if i == 0 || s.ObjID != hits[i-1].ObjID {
			objs = append(objs, s.ObjID)
		}
	}
	return &RangeResponse{Query: q, Hits: hits, Objects: objs, ResponseMeta: ResponseMeta{stats, withRows(span, len(hits))}}, nil
}

// snapshotAt starts an instant query's plan: scan only the samples within
// MaxGap of t — the only ones interpolation can use — and reduce them to one
// interpolated row per observed object. Filters composed after it run on the
// interpolated rows, not on the scan.
func (d *Dataset) snapshotAt(src plan.Source, t float64) *plan.Plan {
	return plan.NewScan(src).
		Filter(plan.TimeBetween(t-d.maxGap, t+d.maxGap)).
		SnapshotAt(t, d.maxGap)
}

// KNN answers a k-nearest-neighbors query at an instant: the objects'
// interpolated positions on the floor (every floor when negative), nearest
// first with ties broken by object ID. K <= 0 asks for nothing, scans nothing
// and answers a null neighbor list.
func (d *Dataset) KNN(q KNNRequest) (*KNNResponse, error) {
	where := []plan.Pred{hasPoint}
	if q.Floor >= 0 {
		where = append(where, plan.OnFloor(q.Floor))
	}
	var neighbors []Neighbor
	if q.K > 0 {
		neighbors = []Neighbor{}
	}
	stats, span, err := d.runPlan("KNN", q.Trace, func(src plan.Source) *plan.Plan {
		return d.snapshotAt(src, q.T).
			Filter(where...).
			Derive(plan.DistTo(q.At)).
			OrderBy(plan.Asc(plan.ColVal), plan.Asc(plan.ColObjID)).
			Limit(max(q.K, 0))
	}, func(b *plan.Batch) {
		for i, dist := range b.Val {
			s := b.Traj.Row(i)
			neighbors = append(neighbors, Neighbor{ObjID: s.ObjID, Loc: s.Loc, Dist: dist})
		}
	})
	if err != nil {
		return nil, err
	}
	return &KNNResponse{Query: q, Neighbors: neighbors, ResponseMeta: ResponseMeta{stats, withRows(span, len(neighbors))}}, nil
}

// Density answers a per-partition snapshot density query at an instant: how
// many objects' interpolated positions lie in each partition.
func (d *Dataset) Density(q DensityRequest) (*DensityResponse, error) {
	counts := make(map[string]int)
	stats, span, err := d.runPlan("Density", q.Trace, func(src plan.Source) *plan.Plan {
		return d.snapshotAt(src, q.T).
			Filter(inPartition).
			Aggregate(plan.By(plan.ColPartition), plan.CountInto(plan.ColObjID))
	}, func(b *plan.Batch) {
		for i, obj := range b.Traj.ObjID {
			counts[b.Traj.Partition.At(i)] = int(obj)
		}
	})
	if err != nil {
		return nil, err
	}
	return &DensityResponse{Query: q, Counts: counts, ResponseMeta: ResponseMeta{stats, withRows(span, len(counts))}}, nil
}

// Traj answers a trajectory-retrieval query for one object: its samples in
// the window in time order, ties in scan order. Pipeline-written files are
// already in time order, which the sort detects in one pass; a hand-made CSV
// in any row order gets the same answer.
func (d *Dataset) Traj(q TrajRequest) (*TrajResponse, error) {
	var samples []trajectory.Sample
	stats, span, err := d.runPlan("Traj", q.Trace, func(src plan.Source) *plan.Plan {
		return plan.NewScan(src).
			Filter(plan.ObjEq(q.Obj), plan.TimeBetween(q.T0, q.T1)).
			OrderBy(plan.Asc(plan.ColT))
	}, func(b *plan.Batch) { samples = b.Traj.AppendTo(slices.Grow(samples, b.Traj.Len())) })
	if err != nil {
		return nil, err
	}
	return &TrajResponse{Query: q, Samples: samples, ResponseMeta: ResponseMeta{stats, withRows(span, len(samples))}}, nil
}

// Dwell answers dwell-time-per-room: for every partition, the total seconds
// objects spent in it during the window, and how many distinct objects were
// seen there. It is composed exactly as a user of the plan package would
// write it: filter the window (pushed down to block pruning), order by
// (object, time), derive per-row dwell gaps, aggregate per (partition,
// object), then roll up per partition summing seconds and counting the
// distinct objects.
func (d *Dataset) Dwell(q DwellRequest) (*DwellResponse, error) {
	preds := []plan.Pred{plan.TimeBetween(q.T0, q.T1)}
	if q.Floor >= 0 {
		preds = append(preds, plan.OnFloor(q.Floor))
	}
	rooms := []DwellRoom{}
	stats, span, err := d.runPlan("Dwell", q.Trace, func(src plan.Source) *plan.Plan {
		return plan.NewScan(src).
			Filter(preds...).
			OrderBy(plan.Asc(plan.ColObjID), plan.Asc(plan.ColT)).
			Derive(plan.DwellGaps(d.maxGap)).
			Aggregate(plan.By(plan.ColPartition, plan.ColObjID), plan.Sum(plan.ColVal, plan.ColVal)).
			Aggregate(plan.By(plan.ColPartition), plan.Sum(plan.ColVal, plan.ColVal), plan.CountInto(plan.ColObjID))
	}, func(b *plan.Batch) {
		for i, obj := range b.Traj.ObjID {
			rooms = append(rooms, DwellRoom{Partition: b.Traj.Partition.At(i), Seconds: b.Val[i], Objects: int(obj)})
		}
	})
	if err != nil {
		return nil, err
	}
	// Longest-dwelled room first; name breaks ties, so output is stable.
	sort.SliceStable(rooms, func(i, j int) bool {
		if rooms[i].Seconds != rooms[j].Seconds {
			return rooms[i].Seconds > rooms[j].Seconds
		}
		return rooms[i].Partition < rooms[j].Partition
	})
	return &DwellResponse{Query: q, Rooms: rooms, ResponseMeta: ResponseMeta{stats, withRows(span, len(rooms))}}, nil
}

// Info summarizes the dataset by folding a bare scan of every row. Bounds
// covers the point of every row, symbolic ones (whose point is the zero
// placeholder) included — the box load generators have always drawn from.
func (d *Dataset) Info(trace bool) (*InfoResponse, error) {
	resp := &InfoResponse{
		T0: math.Inf(1), T1: math.Inf(-1),
		Bounds: geom.BBox{
			Min: geom.Pt(math.Inf(1), math.Inf(1)),
			Max: geom.Pt(math.Inf(-1), math.Inf(-1)),
		},
	}
	objs, floors := make(map[int64]bool), make(map[int64]bool)
	stats, span, err := d.runPlan("Info", trace, plan.NewScan, func(b *plan.Batch) {
		tr := b.Traj
		resp.Samples += tr.Len()
		for i, t := range tr.T {
			objs[tr.ObjID[i]] = true
			floors[tr.Floor[i]] = true
			resp.T0, resp.T1 = math.Min(resp.T0, t), math.Max(resp.T1, t)
			bb := &resp.Bounds
			bb.Min = geom.Pt(math.Min(bb.Min.X, tr.X[i]), math.Min(bb.Min.Y, tr.Y[i]))
			bb.Max = geom.Pt(math.Max(bb.Max.X, tr.X[i]), math.Max(bb.Max.Y, tr.Y[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	if resp.Samples == 0 {
		resp.Empty = true
		resp.T0, resp.T1, resp.Bounds = 0, 0, geom.BBox{}
	}
	resp.Objects = len(objs)
	resp.Floors = make([]int, 0, len(floors))
	for fl := range floors {
		resp.Floors = append(resp.Floors, int(fl))
	}
	sort.Ints(resp.Floors)
	resp.Stats, resp.Trace = stats, withRows(span, resp.Samples)
	return resp, nil
}

// Watch replays every row through a standing range query, in (time, object)
// order with ties in scan order. A row matches when it has a point inside the
// box on the floor (every floor when negative); an object's matching row
// after a non-matching one enters it, its non-matching row after a matching
// one exits it, and moves inside are not reported. Nothing is pruned: a row
// outside the box is what makes an object exit.
func (d *Dataset) Watch(q WatchRequest) (*WatchResponse, error) {
	var events []WatchEvent
	inside := make(map[int]bool)
	stats, span, err := d.runPlan("Watch", q.Trace, func(src plan.Source) *plan.Plan {
		return plan.NewScan(src).OrderBy(plan.Asc(plan.ColT), plan.Asc(plan.ColObjID))
	}, func(b *plan.Batch) {
		tr := b.Traj
		for i, obj := range tr.ObjID {
			match := (q.Floor < 0 || tr.Floor[i] == int64(q.Floor)) &&
				tr.HasPoint[i] && q.Box.Contains(geom.Pt(tr.X[i], tr.Y[i]))
			if id := int(obj); match != inside[id] {
				e := WatchEvent{Kind: "enter", Sample: tr.Row(i)}
				if match {
					inside[id] = true
				} else {
					e.Kind = "exit"
					delete(inside, id)
				}
				events = append(events, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &WatchResponse{Query: q, Events: events, Inside: slices.Sorted(maps.Keys(inside)),
		ResponseMeta: ResponseMeta{stats, withRows(span, len(events))}}, nil
}
