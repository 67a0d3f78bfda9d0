package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vita/internal/core"
	"vita/internal/geom"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/seglog"
	"vita/internal/serve"
	"vita/internal/trajectory"
)

//go:embed profiles/*.json
var profileFS embed.FS

// profile is a generation config plus how its segment log rolls. The JSON is
// decoded onto zero values, not core.DefaultConfig, so a profile states
// everything it relies on.
type profile struct {
	MaxSegmentRows int         `json:"max_segment_rows"`
	Config         core.Config `json:"config"`
}

func loadProfile(name string, seed uint64) (profile, error) {
	raw, err := profileFS.ReadFile("profiles/" + name + ".json")
	if err != nil {
		return profile{}, err
	}
	var p profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return profile{}, fmt.Errorf("profile %s: %w", name, err)
	}
	p.Config.Seed = seed
	return p, nil
}

// captureSink wraps the segment-log sink at the public core.Sink boundary.
// It counts every row, optionally keeps the trajectory rows (the oracle's
// copy), and — when timed — measures the time spent inside the wrapped
// sink and marks the stage boundaries the call sequence reveals.
type captureSink struct {
	inner core.Sink
	keep  bool
	timed bool

	rows      []trajectory.Sample
	sorted    bool // rows arrived in non-decreasing time order
	traj      int
	rssi      int
	estimates int
	// estimateRows is the slice Estimates was handed — a reference, never a
	// copy, so holding it costs the run nothing.
	estimateRows []positioning.Estimate

	start     time.Time
	firstTraj time.Time
	lastTraj  time.Time
	firstRSSI time.Time
	lastRSSI  time.Time
	estAt     time.Time
	inSink    time.Duration
}

func newCaptureSink(inner core.Sink, keep, timed bool, start time.Time) *captureSink {
	return &captureSink{inner: inner, keep: keep, timed: timed, sorted: true, start: start}
}

func (c *captureSink) Trajectory(s trajectory.Sample) error {
	if c.traj == 0 {
		c.firstTraj = time.Now()
	}
	c.traj++
	if c.keep {
		if n := len(c.rows); n > 0 && c.rows[n-1].T > s.T {
			c.sorted = false
		}
		c.rows = append(c.rows, s)
	}
	if !c.timed {
		return c.inner.Trajectory(s)
	}
	t := time.Now()
	err := c.inner.Trajectory(s)
	c.lastTraj = time.Now()
	c.inSink += c.lastTraj.Sub(t)
	return err
}

func (c *captureSink) RSSI(m rssi.Measurement) error {
	if c.rssi == 0 {
		c.firstRSSI = time.Now()
	}
	c.rssi++
	if !c.timed {
		return c.inner.RSSI(m)
	}
	t := time.Now()
	err := c.inner.RSSI(m)
	c.lastRSSI = time.Now()
	c.inSink += c.lastRSSI.Sub(t)
	return err
}

func (c *captureSink) Estimates(es []positioning.Estimate) error {
	c.estAt = time.Now()
	c.estimates, c.estimateRows = len(es), es
	return c.inner.Estimates(es)
}

func (c *captureSink) Proximity(rs []positioning.ProximityRecord) error {
	return c.inner.Proximity(rs)
}

func (c *captureSink) Close() error {
	t := time.Now()
	err := c.inner.Close()
	c.inSink += time.Since(t)
	return err
}

// generated is one finished generation run.
type generated struct {
	sink     *captureSink
	wall     time.Duration // NewPipeline + RunTo + Close
	retained uint64        // heap in use when RunTo returned (traced runs only)
}

// generate runs the profile's pipeline into a fresh segment log under dir.
func generate(p profile, dir string, keep, timed bool) (*generated, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	start := time.Now()
	pipe, err := core.NewPipeline(p.Config)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewSegmentedDirSink(dir, seglog.WriterOptions{MaxSegmentRows: p.MaxSegmentRows})
	if err != nil {
		return nil, err
	}
	sink := newCaptureSink(inner, keep, timed, start)
	g := &generated{sink: sink}
	ds, err := pipe.RunTo(sink)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", dir, err)
	}
	if timed {
		g.retained = heapInUse()
	}
	_ = ds // held until here so retained measures what RunTo hands back
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("generate %s: close sink: %w", dir, err)
	}
	g.wall = time.Since(start)
	return g, nil
}

// logSize returns the on-disk bytes of the dataset's segment logs and how
// many sealed segment files they hold.
func logSize(dir string) (bytes int64, segments int, err error) {
	err = filepath.WalkDir(filepath.Join(dir, "seglog"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			bytes += fi.Size()
			if filepath.Ext(path) == ".vtb" {
				segments++
			}
		}
		return nil
	})
	return bytes, segments, err
}

// shape is what the request generator needs to know about a dataset, taken
// from the rows seen at the sink boundary (so it costs no query).
type shape struct {
	t0, t1  float64
	bounds  geom.BBox
	floors  []int
	objects int
}

func shapeOf(rows []trajectory.Sample) shape {
	sh := shape{bounds: geom.EmptyBBox()}
	if len(rows) == 0 {
		return sh
	}
	sh.t0, sh.t1 = rows[0].T, rows[0].T
	floors := map[int]bool{}
	maxObj := 0
	for _, s := range rows {
		sh.t0, sh.t1 = min(sh.t0, s.T), max(sh.t1, s.T)
		sh.bounds = sh.bounds.ExtendPoint(s.Loc.Point)
		if !floors[s.Loc.Floor] {
			floors[s.Loc.Floor] = true
			sh.floors = append(sh.floors, s.Loc.Floor)
		}
		maxObj = max(maxObj, s.ObjID)
	}
	slices.Sort(sh.floors)
	sh.objects = maxObj + 1
	return sh
}

// served is the scale dataset, generated and opened: the state every serving
// workload starts from.
type served struct {
	ds       *serve.Dataset
	rows     []trajectory.Sample // oracle copy; dropped before timing
	sorted   bool
	shape    shape
	bytes    int64
	setup    []time.Duration // one per full set-up
	openTime time.Duration
}

// setUp generates and opens the scale dataset `times` times, keeping the
// last; each pass is a complete set-up, so their median is setup_s.
func setUp(p profile, dir string, times int) (*served, error) {
	sv := &served{}
	for i := range times {
		start := time.Now()
		g, err := generate(p, dir, i == times-1, false)
		if err != nil {
			return nil, err
		}
		openStart := time.Now()
		ds, err := serve.Open(dir, serve.Config{})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
		sv.openTime = time.Since(openStart)
		sv.setup = append(sv.setup, time.Since(start))
		if i < times-1 {
			if err := ds.Close(); err != nil {
				return nil, err
			}
			continue
		}
		sv.ds = ds
		sv.rows, sv.sorted = g.sink.rows, g.sink.sorted
		sv.shape = shapeOf(sv.rows)
		if sv.bytes, _, err = logSize(dir); err != nil {
			return nil, err
		}
	}
	return sv, nil
}
