package core

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/object"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// Dataset is everything one pipeline run produced, mirroring the data types
// of Figure 1: indoor environment data, positioning device data, raw
// trajectory data, raw RSSI data, and positioning data.
type Dataset struct {
	Building *model.Building
	Topo     *topo.Topology
	// DBIReport lists the data errors identified (and repaired) while
	// processing the DBI file.
	DBIReport *ifc.Report

	// Devices is the deployment, batch by configured batch.
	Devices []*device.Device
	// Trajectories is the run's ground truth, one series slot per object:
	// slot i holds object i+1's samples in time order, empty when the
	// object produced none (see trajectory.Engine.Run). slices.Concat of
	// the slots gives every sample in (object, time) order.
	Trajectories [][]trajectory.Sample
	// RSSI keeps every raw measurement of a Run in the order a sink receives
	// them and rssi.Generator emits them: (object, device, time) — objects
	// in ascending ID, each object's device by device in deployment order,
	// each device's in time order. It is nil after RunTo with a sink: the
	// sink took the measurements, and RSSICount counts them.
	RSSI []rssi.Measurement

	// Estimates holds trilateration / deterministic fingerprinting output,
	// ordered by (object, time).
	Estimates []positioning.Estimate
	// ProbEstimates holds probabilistic fingerprinting output.
	ProbEstimates []positioning.ProbEstimate
	// Proximity holds proximity output, ordered by (object, device, start).
	Proximity []positioning.ProximityRecord
	// RadioMap is the fingerprinting training data, when built.
	RadioMap *positioning.RadioMap

	TrajectoryStats trajectory.Stats
	// RSSICount is the number of raw measurements generated.
	RSSICount int
}

// Pipeline executes the three layers in order. Each controller is exposed so
// callers (and the examples) can also drive stages individually.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates the configuration and returns a runnable pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Building.Source == "" {
		return nil, fmt.Errorf("core: config has no building source")
	}
	if cfg.Trajectory.Duration <= 0 {
		return nil, fmt.Errorf("core: config has non-positive duration")
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism")
	}
	return &Pipeline{cfg: cfg}, nil
}

// Parallelism returns the effective worker count of the run: the configured
// value, or GOMAXPROCS when unset.
func (p *Pipeline) Parallelism() int {
	if p.cfg.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.cfg.Parallelism
}

// Run executes the full pipeline: DBI processing, device deployment, object
// and trajectory generation, RSSI generation, and positioning.
func (p *Pipeline) Run() (*Dataset, error) {
	return p.RunTo(nil)
}

// RunTo executes the pipeline like Run while additionally streaming the data
// products into sink as they are produced: trajectory samples in global time
// order (straight off the generation layer's merge collector, so a columnar
// writer sees them without the pipeline buffering for it), RSSI
// measurements in the generator's object-grouped replay order, and the
// derived positioning tables once at the end.
//
// The stages overlap. Each object's trajectory is stored in its slot of
// Dataset.Trajectories by the worker that simulated it, and also delivered
// to the merge collector, whose goroutine drains it into the sink. As soon
// as every object is simulated the RSSI replay starts on the slots, while
// the merge is still draining; the positioning method runs per object inside the
// RSSI workers, as each object's replay finishes. Sink calls are serialized,
// one batch at a time — a merged run of a few hundred samples, or one
// object's measurements — so the two streams may interleave but never
// overlap, and each keeps its own order. The merge runs only to feed a sink,
// so Run builds none.
//
// With a sink, the returned Dataset does not keep the RSSI measurements
// (Dataset.RSSI is nil; RSSICount counts them); everything else is kept as by
// Run. A nil sink is equivalent to Run. The caller owns sink and must Close
// it after RunTo returns. The first sink error aborts the run: RunTo returns
// it, prefixed with the stream that failed ("core: trajectory sink:",
// "core: rssi sink:"), and no goroutine of the run outlives RunTo.
func (p *Pipeline) RunTo(sink Sink) (*Dataset, error) {
	r := rng.New(p.cfg.Seed)
	// The positioning tables start empty, not nil: a run without positioning
	// output still hands a sink an empty table.
	ds := &Dataset{
		Estimates: []positioning.Estimate{},
		Proximity: []positioning.ProximityRecord{},
	}

	// ----- Infrastructure Layer -----
	env := IndoorEnvironmentController{Config: p.cfg.Building}
	topology, report, err := env.Load()
	if err != nil {
		return nil, err
	}
	ds.Topo = topology
	ds.Building = topology.B
	ds.DBIReport = report

	devCtl := PositioningDeviceController{Configs: p.cfg.Devices}
	devs, err := devCtl.Deploy(topology, r.Split())
	if err != nil {
		return nil, err
	}
	ds.Devices = devs

	// ----- Moving Object Layer -----
	objCtl := MovingObjectController{
		Objects:     p.cfg.Objects,
		Trajectory:  p.cfg.Trajectory,
		Parallelism: p.Parallelism(),
	}
	// Each object's series is stored in its slot by the worker that
	// simulated it; only a sink needs the time-ordered merge, so only a sink
	// gets one. The deferred Close joins the merge on every early return.
	var out *serialSink
	var emitTraj func([]trajectory.Sample) error
	if sink != nil {
		out = new(serialSink)
		emitTraj = func(b []trajectory.Sample) error {
			return writeBatch(out, "trajectory", b, sink.Trajectory)
		}
	}
	var col *trajectory.Collector
	ds.Trajectories, col, ds.TrajectoryStats, err = objCtl.Generate(topology, r.Split(), emitTraj)
	if err != nil {
		return nil, err
	}
	if col != nil {
		defer col.Close()
	}

	// ----- Positioning Layer -----
	// Every object is simulated; the merge may still be draining. The method
	// is built before the replay it consumes, but the parent stream still
	// splits RSSI first, then positioning, so the radio map draws what it
	// always drew.
	rssiR, posR := r.Split(), r.Split()
	pmc := PositioningMethodController{Config: p.cfg.Positioning, RSSI: p.cfg.RSSI}
	position, radioMap, err := pmc.Build(topology, devs, posR)
	if err != nil {
		return nil, err
	}
	ds.RadioMap = radioMap
	var emitRSSI func([]rssi.Measurement) error
	if sink == nil {
		ds.RSSI = []rssi.Measurement{}
		emitRSSI = func(ms []rssi.Measurement) error {
			ds.RSSI = append(ds.RSSI, ms...)
			return nil
		}
	} else {
		emitRSSI = func(ms []rssi.Measurement) error {
			return writeBatch(out, "rssi", ms, sink.RSSI)
		}
	}
	// Windows never span objects, so the method runs on each object's
	// measurements on the worker that replayed it; the flush appends the
	// results in ascending object ID, which is the order a whole-run pass
	// would produce.
	var done rssi.ObjectDone
	var posErr error
	if position != nil {
		done = func(_ int, ms []rssi.Measurement) func() {
			pos, err := position(ms)
			return func() {
				if err != nil && posErr == nil {
					posErr = err
				}
				ds.Estimates = append(ds.Estimates, pos.Estimates...)
				ds.ProbEstimates = append(ds.ProbEstimates, pos.ProbEstimates...)
				ds.Proximity = append(ds.Proximity, pos.Proximity...)
			}
		}
	}
	rssiCtl := RSSIMeasurementController{Config: p.cfg.RSSI, Parallelism: p.Parallelism()}
	ds.RSSICount, err = rssiCtl.Generate(topology, devs, ds.Trajectories, rssiR, emitRSSI, done)
	if col != nil {
		col.Close()
	}
	// A sink failure comes first, whichever stage noticed it.
	if out != nil && out.err != nil {
		return nil, out.err
	}
	if err != nil {
		return nil, err
	}
	if posErr != nil {
		return nil, posErr
	}
	if sink != nil {
		if err := sink.Estimates(ds.Estimates); err != nil {
			return nil, fmt.Errorf("core: estimates sink: %w", err)
		}
		if err := sink.Proximity(ds.Proximity); err != nil {
			return nil, fmt.Errorf("core: proximity sink: %w", err)
		}
	}
	return ds, nil
}

// serialSink is a run's sink as both bulk streams share it: calls are
// serialized one batch at a time, never held while rows are simulated or
// replayed, and the first failure is latched, so every later batch of
// either stream is refused with it.
type serialSink struct {
	mu  sync.Mutex
	err error
}

// writeBatch hands one batch of a stream's rows to write under the sink's
// lock.
func writeBatch[T any](s *serialSink, stream string, batch []T, write func(T) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	for _, row := range batch {
		if err := write(row); err != nil {
			s.err = fmt.Errorf("core: %s sink: %w", stream, err)
			return s.err
		}
	}
	return nil
}

// IndoorEnvironmentController loads and constructs the host indoor
// environment from a DBI source (paper §2, layer 1).
type IndoorEnvironmentController struct {
	Config BuildingConfig
}

// Load parses the DBI source and builds the topology. Besides extraction's
// issues, the report names every partition no door and no staircase leads
// into.
func (c IndoorEnvironmentController) Load() (*topo.Topology, *ifc.Report, error) {
	src := c.Config.Source
	var text string
	switch {
	case src == "synthetic:office":
		text = ifc.OfficeIFC()
	case src == "synthetic:mall":
		text = ifc.MallIFC()
	case src == "synthetic:clinic":
		text = ifc.ClinicIFC()
	case strings.HasPrefix(src, "file:"):
		data, err := os.ReadFile(strings.TrimPrefix(src, "file:"))
		if err != nil {
			return nil, nil, fmt.Errorf("core: read DBI file: %w", err)
		}
		text = string(data)
	default:
		return nil, nil, fmt.Errorf("core: unknown building source %q", src)
	}

	f, err := ifc.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	b, report, err := ifc.Extract(f)
	if err != nil {
		return nil, report, err
	}
	if err := c.applyObstacles(b); err != nil {
		return nil, report, err
	}
	if err := c.applyDoorDirections(b); err != nil {
		return nil, report, err
	}

	opts := topo.DefaultOptions()
	if c.Config.Decompose != nil && !*c.Config.Decompose {
		opts.Decompose = false
	}
	if c.Config.MaxPartitionArea > 0 {
		opts.MaxArea = c.Config.MaxPartitionArea
	}
	topology, err := topo.Build(b, opts)
	if err != nil {
		return nil, report, err
	}
	report.Issues = append(report.Issues, disconnected(topology.B)...)
	return topology, report, nil
}

// disconnected reports, as unrepaired errors, the rooms no walker can reach
// from the rest of the building: the DBI is missing a door. A door with two
// sides and a linked staircase each join two partitions, in either
// direction; the largest group so joined is the building (on a tie, the
// group holding the lowest (floor, partition ID)), and each room with a
// partition outside it is one error, named by the room once.
func disconnected(b *model.Building) []ifc.Issue {
	type node struct {
		floor    int
		id, room string
	}
	var nodes []node
	for _, level := range b.FloorLevels() {
		for _, p := range b.Floors[level].Partitions {
			nodes = append(nodes, node{level, p.ID, p.Room()})
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	slices.SortFunc(nodes, func(a, b node) int {
		return cmp.Or(cmp.Compare(a.floor, b.floor), strings.Compare(a.id, b.id))
	})
	type side struct {
		floor int
		id    string
	}
	index := make(map[side]int, len(nodes))
	parent := make([]int, len(nodes))
	for i, n := range nodes {
		index[side{n.floor, n.id}] = i
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	join := func(a, b side) {
		i, iok := index[a]
		j, jok := index[b]
		if iok && jok { // an exterior door side ("") joins nothing
			parent[find(i)] = find(j)
		}
	}
	for _, s := range b.Staircases {
		if s.Linked {
			join(side{s.UpperFloor, s.UpperPartition}, side{s.LowerFloor, s.LowerPartition})
		}
	}
	for _, level := range b.FloorLevels() {
		for _, d := range b.Floors[level].Doors {
			join(side{level, d.Partitions[0]}, side{level, d.Partitions[1]})
		}
	}
	// Nodes are in (floor, ID) order, so the first largest group met holds
	// the lowest node of any group its size.
	size := make([]int, len(nodes))
	for i := range nodes {
		size[find(i)]++
	}
	main := find(0)
	for i := range nodes {
		if r := find(i); size[r] > size[main] {
			main = r
		}
	}
	var out []ifc.Issue
	reported := make(map[side]bool)
	for i, n := range nodes {
		room := side{n.floor, n.room}
		if find(i) == main || reported[room] {
			continue
		}
		reported[room] = true
		out = append(out, ifc.Issue{Severity: ifc.SevError, Entity: n.room, Message: "no door or staircase connects the room to the rest of the building"})
	}
	return out
}

// applyObstacles deploys the configured obstacles onto their floors.
func (c IndoorEnvironmentController) applyObstacles(b *model.Building) error {
	for i, oc := range c.Config.Obstacles {
		f, ok := b.Floor(oc.Floor)
		if !ok {
			return fmt.Errorf("core: obstacle %d references unknown floor %d", i, oc.Floor)
		}
		poly := geom.Rect(oc.MinX, oc.MinY, oc.MaxX, oc.MaxY)
		if err := poly.Validate(); err != nil {
			return fmt.Errorf("core: obstacle %d: %w", i, err)
		}
		f.Obstacles = append(f.Obstacles, &model.Obstacle{
			ID:      fmt.Sprintf("user-obstacle-%d", i+1),
			Floor:   oc.Floor,
			Polygon: poly,
		})
	}
	return nil
}

// applyDoorDirections configures door directionality. It needs door
// connectivity, so it runs a ConnectDoors pass first, over the DBI's
// rooms: directions are named by room ID. topo.Build decomposes and then
// homes the doors again, keeping each door's sides in the same room order,
// so the direction still leads from the same room.
func (c IndoorEnvironmentController) applyDoorDirections(b *model.Building) error {
	if len(c.Config.OneWayDoors) == 0 {
		return nil
	}
	if err := topo.ConnectDoors(b); err != nil {
		return err
	}
	for _, ow := range c.Config.OneWayDoors {
		var door *model.Door
		for _, level := range b.FloorLevels() {
			for _, d := range b.Floors[level].Doors {
				if d.ID == ow.Door {
					door = d
				}
			}
		}
		if door == nil {
			return fmt.Errorf("core: one-way door %q not found", ow.Door)
		}
		switch {
		case door.Partitions[0] == ow.From && door.Partitions[1] == ow.To:
			door.Direction = model.AToB
		case door.Partitions[1] == ow.From && door.Partitions[0] == ow.To:
			door.Direction = model.BToA
		default:
			return fmt.Errorf("core: one-way door %q does not connect %q and %q (connects %v)",
				ow.Door, ow.From, ow.To, door.Partitions)
		}
	}
	return nil
}

// PositioningDeviceController deploys the configured positioning devices
// (paper §2, layer 1).
type PositioningDeviceController struct {
	Configs []DeviceConfig
}

// Deploy places every configured device batch. Device IDs must be unique
// across the deployment.
func (c PositioningDeviceController) Deploy(t *topo.Topology, r *rng.Rand) ([]*device.Device, error) {
	var out []*device.Device
	seen := make(map[string]bool)
	for i, dc := range c.Configs {
		spec, err := dc.spec()
		if err != nil {
			return nil, fmt.Errorf("core: device config %d: %w", i, err)
		}
		devs, err := device.Deploy(t.B, dc.Floor, spec, r)
		if err != nil {
			return nil, fmt.Errorf("core: device config %d: %w", i, err)
		}
		for _, d := range devs {
			if seen[d.ID] {
				return nil, fmt.Errorf("core: device config %d: duplicate device ID %s", i, d.ID)
			}
			seen[d.ID] = true
		}
		out = append(out, devs...)
	}
	return out, nil
}

// MovingObjectController generates moving objects and raw trajectories
// (paper §2, layer 2).
type MovingObjectController struct {
	Objects    ObjectConfig
	Trajectory TrajectoryConfig
	// Parallelism shards objects across this many workers (0 = GOMAXPROCS);
	// output is identical for any value.
	Parallelism int
}

// Generate runs the movement engine and returns its series slots; when emit
// is non-nil, it also returns the collector merging them into emit in time
// order; see trajectory.Engine.Run. It returns once every object is
// simulated: the caller Closes the collector to wait for the merge.
func (c MovingObjectController) Generate(t *topo.Topology, r *rng.Rand, emit func([]trajectory.Sample) error) ([][]trajectory.Sample, *trajectory.Collector, trajectory.Stats, error) {
	pattern, err := c.Objects.pattern()
	if err != nil {
		return nil, nil, trajectory.Stats{}, err
	}
	dist, err := c.Objects.distribution()
	if err != nil {
		return nil, nil, trajectory.Stats{}, err
	}
	spawnCfg := object.SpawnConfig{
		InitialCount:       c.Objects.Count,
		MinLifespan:        c.Objects.MinLifespan,
		MaxLifespan:        c.Objects.MaxLifespan,
		MaxSpeed:           c.Objects.MaxSpeed,
		Pattern:            pattern,
		Distribution:       dist,
		ArrivalRate:        c.Objects.ArrivalRate,
		EmergingPartitions: c.Objects.EmergingPartitions,
	}
	if spawnCfg.MinLifespan <= 0 {
		spawnCfg.MinLifespan = c.Trajectory.Duration / 2
	}
	if spawnCfg.MaxLifespan < spawnCfg.MinLifespan {
		spawnCfg.MaxLifespan = c.Trajectory.Duration
	}
	if spawnCfg.MaxSpeed <= 0 {
		spawnCfg.MaxSpeed = 1.5
	}
	sp, err := object.NewSpawner(t, spawnCfg)
	if err != nil {
		return nil, nil, trajectory.Stats{}, err
	}
	eng, err := trajectory.NewEngine(t, sp, trajectory.Config{
		Duration:       c.Trajectory.Duration,
		Tick:           c.Trajectory.Tick,
		SampleInterval: c.Trajectory.SampleInterval,
		Parallelism:    c.Parallelism,
	}, r)
	if err != nil {
		return nil, nil, trajectory.Stats{}, err
	}
	return eng.Run(emit)
}

// RSSIMeasurementController generates raw RSSI measurements (paper §2,
// layer 3).
type RSSIMeasurementController struct {
	Config RSSIConfig
	// Parallelism shards object replays across this many workers
	// (0 = GOMAXPROCS); output is identical for any value.
	Parallelism int
}

// Generate replays the per-object series (ascending object ID) against
// devices, emitting each object's measurements as one batch; done, when
// non-nil, runs per object as rssi.Generator.Generate documents.
func (c RSSIMeasurementController) Generate(t *topo.Topology, devs []*device.Device,
	series [][]trajectory.Sample, r *rng.Rand, emit func([]rssi.Measurement) error, done rssi.ObjectDone) (int, error) {
	gen, err := rssi.NewGenerator(t, devs, rssi.Config{
		Model:          c.Config.model(),
		SampleInterval: c.Config.SampleInterval,
		Parallelism:    c.Parallelism,
	})
	if err != nil {
		return 0, err
	}
	return gen.Generate(series, r, emit, done)
}

// PositioningMethodController derives positioning data from raw RSSI data
// with the chosen method (paper §2, layer 3).
type PositioningMethodController struct {
	Config PositioningConfig
	RSSI   RSSIConfig
}

// Positions is the positioning output for a set of objects.
type Positions struct {
	Estimates     []positioning.Estimate
	ProbEstimates []positioning.ProbEstimate
	Proximity     []positioning.ProximityRecord
}

// Positioner runs a positioning method over ms, which must hold all of the
// measurements of every object it covers. Windows never span objects, so one
// object's measurements position alone, and the Positions of single objects
// concatenated in ascending object ID equal those of the objects together.
type Positioner func(ms []rssi.Measurement) (Positions, error)

// Build constructs the configured method for a deployment — for
// fingerprinting that includes the offline phase, surveying the radio map
// with r, which Build also returns. The Positioner is nil when the
// positioning step is skipped.
func (c PositioningMethodController) Build(t *topo.Topology, devs []*device.Device, r *rng.Rand) (Positioner, *positioning.RadioMap, error) {
	switch c.Config.Method {
	case "":
		return nil, nil, nil
	case "trilateration":
		tr, err := positioning.NewTrilateration(t, devs, positioning.TrilaterationConfig{
			Convert:        positioning.DefaultConversion(c.RSSI.model()),
			SampleInterval: c.Config.SampleInterval,
		})
		if err != nil {
			return nil, nil, err
		}
		return func(ms []rssi.Measurement) (Positions, error) {
			est, err := tr.Estimate(ms)
			return Positions{Estimates: est}, err
		}, nil, nil
	case "fingerprint", "fingerprinting":
		algo, err := c.Config.algorithm()
		if err != nil {
			return nil, nil, err
		}
		rm, err := positioning.BuildRadioMap(t, devs, positioning.RadioMapConfig{
			Spacing: c.Config.Spacing,
			Model:   c.RSSI.model(),
		}, r)
		if err != nil {
			return nil, nil, err
		}
		fp, err := positioning.NewFingerprinting(rm, devs, positioning.FingerprintConfig{
			Algorithm:      algo,
			K:              c.Config.K,
			SampleInterval: c.Config.SampleInterval,
		})
		if err != nil {
			return nil, nil, err
		}
		if algo == positioning.NaiveBayes {
			// Each window is scored once; the deterministic records are the
			// argmax of the probabilistic ones.
			return func(ms []rssi.Measurement) (Positions, error) {
				pe, err := fp.EstimateProbabilistic(ms)
				return Positions{Estimates: positioning.TopEstimates(pe), ProbEstimates: pe}, err
			}, rm, nil
		}
		return func(ms []rssi.Measurement) (Positions, error) {
			est, err := fp.Estimate(ms)
			return Positions{Estimates: est}, err
		}, rm, nil
	case "proximity":
		// Detection periods follow the interval the measurements were
		// generated at.
		px, err := positioning.NewProximity(devs, c.RSSI.SampleInterval)
		if err != nil {
			return nil, nil, err
		}
		return func(ms []rssi.Measurement) (Positions, error) {
			recs, err := px.Records(ms)
			return Positions{Proximity: recs}, err
		}, nil, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown positioning method %q", c.Config.Method)
	}
}
