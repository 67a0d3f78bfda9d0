package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vita/internal/core"
	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/object"
	"vita/internal/plan"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/serve"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// smallRun returns a fast default config for experiment-scale runs.
func smallRun(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Trajectory.Duration = 180
	cfg.Objects.Count = 20
	cfg.Objects.MinLifespan = 120
	cfg.Objects.MaxLifespan = 180
	return cfg
}

func run(cfg core.Config) (*core.Dataset, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// E1Pipeline reproduces Figure 1's data flow end to end: every stage's output
// volume and the routes the walkers failed to plan, per building. The run
// time is BenchmarkPipelineEndToEnd's, not a cell: a table is a function of
// the seed.
func E1Pipeline(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "pipeline end-to-end data flow (Figure 1, demo steps 1-6)",
		Header: []string{"building", "partitions", "devices", "traj rows", "route fails", "rssi rows", "pos rows"},
		Notes:  "every stage of Figure 1 produces data; counts grow monotonically down the pipeline (rssi >= traj coverage within range).",
	}
	for _, src := range []string{"synthetic:office", "synthetic:mall", "synthetic:clinic"} {
		cfg := smallRun(seed)
		cfg.Building.Source = src
		cfg.Devices = []core.DeviceConfig{
			{Floor: 0, Model: "coverage", Type: "wifi", Count: 8},
		}
		ds, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", src, err)
		}
		t.AddRow(src, ds.Building.PartitionCount(), len(ds.Devices),
			ds.TrajectoryStats.Samples, ds.TrajectoryStats.RouteFailures, len(ds.RSSI), len(ds.Estimates))
	}
	return t, nil
}

// E2Deployment reproduces Figure 3's two-floor example: coverage deployment
// on the ground floor, check-point on the first floor, and the
// crowd-outliers initial distribution.
func E2Deployment(seed uint64) (*Table, error) {
	r := rng.New(seed)
	topology, err := officeTopo()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E2",
		Title:  "deployment models and crowd-outliers distribution (Figure 3)",
		Header: []string{"metric", "value"},
		Notes:  "coverage devices sit near walls with large separation; check-point devices sit at entrances/hotspots; most crowd-outliers objects concentrate in hot areas.",
	}

	cov, err := device.Deploy(topology.B, 0, device.DeploySpec{Model: device.Coverage, Type: device.WiFi, Count: 8}, r)
	if err != nil {
		return nil, err
	}
	chk, err := device.Deploy(topology.B, 1, device.DeploySpec{Model: device.CheckPoint, Type: device.WiFi}, r)
	if err != nil {
		return nil, err
	}
	f0, _ := topology.B.Floor(0)
	t.AddRow("coverage devices (F0)", len(cov))
	t.AddRow("coverage min pairwise separation (m)", device.MinPairwiseDistance(cov))
	t.AddRow("coverage mean wall distance (m)", device.MeanWallDistance(f0, cov))
	t.AddRow("check-point devices (F1)", len(chk))

	// Crowd-outliers: place 500 objects, count the fraction in hot areas.
	dist := object.CrowdOutliers{CrowdFraction: 0.8}
	hot := 0
	const n = 500
	for i := 0; i < n; i++ {
		loc, err := dist.Place(topology, r)
		if err != nil {
			return nil, err
		}
		p, ok := topology.B.Partition(loc.Floor, loc.Partition)
		if ok && p.Polygon.Area() >= 50 && p.Kind != model.KindHallway {
			hot++
		}
	}
	t.AddRow("crowd-outliers: objects placed", n)
	t.AddRow("crowd-outliers: fraction in hot areas", float64(hot)/n)

	uniDist := object.Uniform{}
	uniHot := 0
	for i := 0; i < n; i++ {
		loc, err := uniDist.Place(topology, r)
		if err != nil {
			return nil, err
		}
		p, ok := topology.B.Partition(loc.Floor, loc.Partition)
		if ok && p.Polygon.Area() >= 50 && p.Kind != model.KindHallway {
			uniHot++
		}
	}
	t.AddRow("uniform: fraction in same areas (baseline)", float64(uniHot)/n)
	return t, nil
}

// E3WallAttenuation reproduces the Figure 3(a) claim: at equal transmission
// distance, the device behind walls (d1) measures a weaker RSSI than the
// line-of-sight device (d2), by about WallLoss per wall.
func E3WallAttenuation(seed uint64) (*Table, error) {
	r := rng.New(seed)
	topology, err := officeTopo()
	if err != nil {
		return nil, err
	}
	m := rssi.DefaultPathLossModel()
	// Object in the hallway; two probes at equal distance: d2 along the open
	// hallway (line of sight), d1 across a room wall. The x=18 offset keeps
	// both paths away from door openings (doors sit at x = 4, 12, 20, ...).
	p := geom.Pt(18, 10)
	losDev := &device.Device{ID: "d2", Type: device.WiFi, Floor: 0,
		Position: geom.Pt(26, 10), Props: device.DefaultProperties(device.WiFi)}
	nlosDev := &device.Device{ID: "d1", Type: device.WiFi, Floor: 0,
		Position: geom.Pt(18, 2), Props: device.DefaultProperties(device.WiFi)}

	distLoS := losDev.Position.Dist(p)
	distNLoS := nlosDev.Position.Dist(p)
	cLoS := topology.Crossings(0, losDev.Position, p)
	cNLoS := topology.Crossings(0, nlosDev.Position, p)

	const samples = 2000
	var sumLoS, sumNLoS float64
	for i := 0; i < samples; i++ {
		sumLoS += m.At(distLoS, cLoS, losDev, r)
		sumNLoS += m.At(distNLoS, cNLoS, nlosDev, r)
	}
	meanLoS := sumLoS / samples
	meanNLoS := sumNLoS / samples

	t := &Table{
		ID:     "E3",
		Title:  "RSSI wall attenuation at equal transmission distance (Figure 3a)",
		Header: []string{"probe", "distance m", "walls crossed", "mean rssi dBm"},
		Notes: fmt.Sprintf("expected gap = wallLoss × wall difference = %.1f dB; measured gap = %.2f dB.",
			m.WallLoss*float64(cNLoS-cLoS), meanLoS-meanNLoS),
	}
	t.AddRow("d2 (line of sight)", distLoS, cLoS, meanLoS)
	t.AddRow("d1 (behind walls)", distNLoS, cNLoS, meanNLoS)
	if cNLoS <= cLoS {
		return nil, fmt.Errorf("E3: probe geometry broken: nlos crossings %d <= los crossings %d", cNLoS, cLoS)
	}
	return t, nil
}

// E4SamplingSweep quantifies the paper's ground-truth claim: finer trajectory
// sampling preserves movement more faithfully. Reconstruction error of
// linear interpolation grows with the sampling period.
func E4SamplingSweep(seed uint64) (*Table, error) {
	topology, err := officeTopo()
	if err != nil {
		return nil, err
	}
	sp, err := object.NewSpawner(topology, object.SpawnConfig{
		InitialCount: 10,
		MinLifespan:  180, MaxLifespan: 180,
		MaxSpeed: 1.6,
		Pattern:  object.DefaultPattern(),
	})
	if err != nil {
		return nil, err
	}
	eng, err := trajectory.NewEngine(topology, sp, trajectory.Config{
		Duration: 180, Tick: 0.25, SampleInterval: 0.5,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	series, _, err := eng.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E4",
		Title:  "ground-truth fidelity vs trajectory sampling period",
		Header: []string{"sampling period s", "kept samples", "mean reconstruction error m", "max error m"},
		Notes:  "error of linearly interpolating the 0.5s reference from the downsampled series; finer sampling = finer ground truth (paper §1).",
	}
	for _, period := range []float64{1, 2, 5, 10} {
		var errSum, errMax float64
		var kept, n int
		for _, ref := range series {
			if len(ref) == 0 {
				continue
			}
			down := downsample(ref, period)
			kept += len(down)
			for _, s := range ref {
				loc, _ := trajectory.SeriesAt(down, s.T)
				if s.Loc.Floor != loc.Floor {
					continue
				}
				e := s.Loc.Point.Dist(loc.Point)
				errSum += e
				if e > errMax {
					errMax = e
				}
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("E4: no reconstruction points at period %.1f", period)
		}
		t.AddRow(period, kept, errSum/float64(n), errMax)
	}
	return t, nil
}

func downsample(series []trajectory.Sample, period float64) []trajectory.Sample {
	var out []trajectory.Sample
	next := series[0].T
	for _, s := range series {
		if s.T >= next-1e-9 {
			out = append(out, s)
			next = s.T + period
		}
	}
	return out
}

// E5Accuracy compares the three positioning methods under increasing signal
// fluctuation.
func E5Accuracy(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "positioning accuracy by method and fluctuation noise",
		Header: []string{"method", "sigma dB", "estimates", "mean err m", "median m", "p95 m"},
		Notes:  "at every sigma fingerprinting is the most accurate, trilateration next, proximity last; fingerprinting's mean error grows with noise while trilateration's stays within about 0.5 m of its sigma-1 value; proximity never reads the RSSI value, so its row is the same at every sigma and its error is bounded by device detection range.",
	}
	for _, sigma := range []float64{1, 2, 4, 8} {
		for _, method := range []string{"trilateration", "fingerprint", "proximity"} {
			cfg := smallRun(seed)
			cfg.RSSI.FluctuationSigma = sigma
			cfg.Devices = []core.DeviceConfig{
				{Floor: 0, Model: "coverage", Type: "wifi", Count: 12},
				{Floor: 1, Model: "coverage", Type: "wifi", Count: 12},
			}
			cfg.Positioning = core.PositioningConfig{Method: method}
			ds, err := run(cfg)
			if err != nil {
				return nil, fmt.Errorf("E5 %s sigma=%.0f: %w", method, sigma, err)
			}
			switch method {
			case "proximity":
				stats := proximityError(ds)
				t.AddRow(method, sigma, stats.N, stats.Mean, stats.Median, stats.P95)
			default:
				stats, _ := core.EvaluateEstimates(ds.Trajectories, ds.Estimates)
				t.AddRow(method, sigma, stats.N, stats.Mean, stats.Median, stats.P95)
			}
		}
	}
	return t, nil
}

// proximityError treats the detecting device's position as the estimate at
// the middle of each detection period.
func proximityError(ds *core.Dataset) core.ErrorStats {
	byID := make(map[string]*device.Device, len(ds.Devices))
	for _, d := range ds.Devices {
		byID[d.ID] = d
	}
	var ests []positioning.Estimate
	for _, r := range ds.Proximity {
		d, ok := byID[r.DeviceID]
		if !ok {
			continue
		}
		ests = append(ests, positioning.Estimate{
			ObjID: r.ObjID,
			Loc:   model.At(ds.Building.ID, d.Floor, "", d.Position),
			T:     (r.TS + r.TE) / 2,
		})
	}
	stats, _ := core.EvaluateEstimates(ds.Trajectories, ests)
	return stats
}

// E6Routing compares the two routing schemas of §3.1 over random OD pairs in
// the mall, whose corridor (fast hallway) and atrium (slow public area) form
// parallel paths so the two metrics genuinely diverge. A drawn pair of two
// distinct partitions that either schema cannot route is an error, not a
// skipped row: every partition of the mall must reach every other.
func E6Routing(seed uint64) (*Table, error) {
	topology, err := mallTopology()
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	var dDist, dTime, tDist, tTime float64
	n, diverged := 0, 0
	for i := 0; i < e6Draws; i++ {
		from, to, ok := randomODPair(topology, r)
		if !ok {
			continue
		}
		rd, err := topology.Route(from, to, topo.MinDistance)
		if err != nil {
			return nil, fmt.Errorf("E6: pair %d (%s → %s): min-distance: %w", i, from.Partition, to.Partition, err)
		}
		rt, err := topology.Route(from, to, topo.MinTime)
		if err != nil {
			return nil, fmt.Errorf("E6: pair %d (%s → %s): min-time: %w", i, from.Partition, to.Partition, err)
		}
		dDist += rd.Distance
		dTime += rd.Time
		tDist += rt.Distance
		tTime += rt.Time
		if rt.Distance > rd.Distance+0.01 {
			diverged++
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("E6: no routable OD pairs")
	}
	fn := float64(n)
	t := &Table{
		ID:     "E6",
		Title:  "routing schemes over random OD pairs (mall: fast corridor vs slow atrium)",
		Header: []string{"schema", "pairs", "mean distance m", "mean time s", "paths diverged"},
		Notes:  "min-distance minimizes meters, min-time minimizes seconds; min-time accepts longer detours through the fast corridor.",
	}
	t.AddRow("min-distance", n, dDist/fn, dTime/fn, "-")
	t.AddRow("min-time", n, tDist/fn, tTime/fn, diverged)
	if tTime > dTime+1e-9 {
		return nil, fmt.Errorf("E6: min-time mean %.2fs slower than min-distance %.2fs", tTime/fn, dTime/fn)
	}
	if dDist > tDist+1e-9 {
		return nil, fmt.Errorf("E6: min-distance mean %.2fm longer than min-time %.2fm", dDist/fn, tDist/fn)
	}
	return t, nil
}

// e6Draws is how many OD pairs E6 draws; a draw of one partition twice is
// not a pair and is dropped.
const e6Draws = 60

// mallTopology builds the routing topology of the synthetic mall from its IFC
// text, as §4.1's pipeline does.
func mallTopology() (*topo.Topology, error) {
	f, err := ifc.Parse(ifc.MallIFC())
	if err != nil {
		return nil, err
	}
	b, _, err := ifc.Extract(f)
	if err != nil {
		return nil, err
	}
	return topo.Build(b, topo.DefaultOptions())
}

func randomODPair(t *topo.Topology, r *rng.Rand) (model.Location, model.Location, bool) {
	parts := t.Partitions()
	if len(parts) < 2 {
		return model.Location{}, model.Location{}, false
	}
	pa := parts[r.Intn(len(parts))]
	pb := parts[r.Intn(len(parts))]
	if pa == pb {
		return model.Location{}, model.Location{}, false
	}
	from := model.At(t.B.ID, pa.Floor, pa.ID, topo.RandomPointIn(pa, r.Float64))
	to := model.At(t.B.ID, pb.Floor, pb.ID, topo.RandomPointIn(pb, r.Float64))
	return from, to, true
}

// E7DBIProcessing counts what the §4.1 pipeline makes of each synthetic
// DBI: parse, repair, decompose, link staircases. Its time is
// BenchmarkDBIProcessing's.
func E7DBIProcessing(seed uint64) (*Table, error) {
	_ = seed
	t := &Table{
		ID:     "E7",
		Title:  "DBI processing: parse, repair, decompose, link (paper §4.1)",
		Header: []string{"building", "ifc bytes", "spaces", "partitions after", "doors", "stairs linked", "issues"},
		Notes:  "multi-floor staircases all resolve via the two-step linking algorithm; irregular/oversized partitions are decomposed.",
	}
	sources := map[string]string{
		"office": ifc.OfficeIFC(),
		"mall":   ifc.MallIFC(),
		"clinic": ifc.ClinicIFC(),
	}
	for _, name := range []string{"office", "mall", "clinic"} {
		// Load is the pipeline's own DBI path, so the issue count includes
		// its checks on the built topology.
		env := core.IndoorEnvironmentController{Config: core.BuildingConfig{Source: "synthetic:" + name}}
		topology, rep, err := env.Load()
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", name, err)
		}
		b := topology.B
		spaces := map[string]bool{} // the DBI's rooms, before decomposition
		linked := 0
		for _, p := range topology.Partitions() {
			spaces[p.Room()] = true
		}
		for _, s := range b.Staircases {
			if s.Linked {
				linked++
			}
		}
		t.AddRow(name, len(sources[name]), len(spaces), b.PartitionCount(),
			b.DoorCount(), fmt.Sprintf("%d/%d", linked, len(b.Staircases)),
			len(rep.Issues))
	}
	return t, nil
}

// E8StorageQueries runs the Data Stream API queries of the §5 demo on a
// generated dataset — the snapshot, traj and range plans the server answers,
// run over the stored samples, plus two device lookups — and counts their
// results. Their time is BenchmarkStorageQueries's and the plan
// benchmarks'.
func E8StorageQueries(seed uint64) (*Table, error) {
	cfg := smallRun(seed)
	ds, err := run(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E8",
		Title:  "storage and data stream API queries",
		Header: []string{"query", "results"},
		Notes: "the snapshot, window and nearest-device queries of the GUI demo (paper §5 step 4): " +
			"the trajectory rows are plans of internal/plan over the stored samples, as the server runs them; " +
			"the device rows scan the deployment.",
	}
	query := func(name string, fn func() int) { t.AddRow(name, fn()) }
	samples := slices.Concat(ds.Trajectories...)
	if len(samples) == 0 {
		return nil, fmt.Errorf("E8: no trajectory sample")
	}
	src := plan.SliceSource{Samples: samples}
	var qerr error
	count := func(p *plan.Plan) int {
		c, err := p.Compile()
		if err != nil {
			qerr = err
			return 0
		}
		rows, err := plan.CollectSamples(c)
		if err != nil {
			qerr = err
		}
		return len(rows)
	}
	const at, gap = 90, serve.DefaultMaxGap
	query("snapshot at t=90s", func() int {
		return count(plan.NewScan(src).Filter(plan.TimeBetween(at-gap, at+gap)).SnapshotAt(at, gap))
	})
	query("time range obj[0] [30,90]", func() int {
		return count(plan.NewScan(src).Filter(plan.ObjEq(samples[0].ObjID), plan.TimeBetween(30, 90)))
	})
	f0, _ := ds.Building.Floor(0)
	bb := f0.BBox()
	half := geom.BBox{Min: bb.Min, Max: geom.Pt(bb.Center().X, bb.Max.Y)}
	query("window query F0 half-floor", func() int {
		return count(plan.NewScan(src).Filter(plan.OnFloor(0), plan.InBox(half), plan.TimeBetween(0, 60)))
	})
	if qerr != nil {
		return nil, fmt.Errorf("E8: %w", qerr)
	}
	center := bb.Center()
	query("devices in range of center", func() int {
		n := 0
		for _, d := range ds.Devices {
			if d.Floor == 0 && d.InRange(center) {
				n++
			}
		}
		return n
	})
	query("3 nearest devices", func() int {
		var near []*device.Device
		for _, d := range ds.Devices {
			if d.Floor == 0 {
				near = append(near, d)
			}
		}
		slices.SortFunc(near, func(a, b *device.Device) int {
			return cmp.Compare(a.Position.Dist(center), b.Position.Dist(center))
		})
		return len(near[:min(3, len(near))])
	})
	return t, nil
}

// E9Arrivals validates the Poisson arrival process of §3.1.
func E9Arrivals(seed uint64) (*Table, error) {
	cfg := smallRun(seed)
	cfg.Objects.Count = 0
	cfg.Objects.ArrivalRate = 0.2 // objects per second
	cfg.Trajectory.Duration = 600
	cfg.Objects.MinLifespan = 60
	cfg.Objects.MaxLifespan = 120
	cfg.Positioning.Method = ""
	ds, err := run(cfg)
	if err != nil {
		return nil, err
	}
	arrived := ds.TrajectoryStats.Spawned
	expected := cfg.Objects.ArrivalRate * cfg.Trajectory.Duration
	t := &Table{
		ID:     "E9",
		Title:  "Poisson arrivals of new objects (paper §3.1 lifespan)",
		Header: []string{"metric", "value"},
		Notes:  "arrivals over 600s at rate 0.2/s should total ≈120 (within sampling noise).",
	}
	t.AddRow("configured rate (obj/s)", cfg.Objects.ArrivalRate)
	t.AddRow("duration (s)", cfg.Trajectory.Duration)
	t.AddRow("expected arrivals", expected)
	t.AddRow("observed arrivals", arrived)
	dev := math.Abs(float64(arrived)-expected) / expected
	t.AddRow("relative deviation", dev)
	if dev > 0.35 {
		return nil, fmt.Errorf("E9: arrival count %d deviates %.0f%% from expectation %.0f", arrived, dev*100, expected)
	}
	return t, nil
}

// E10Combos runs the demo's device+method combinations (paper §5 step 6).
func E10Combos(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "demo combinations: RFID+proximity, Bluetooth+trilateration, Wi-Fi+fingerprinting",
		Header: []string{"combo", "devices", "rssi rows", "output rows", "accuracy"},
		Notes:  "all three §5 combinations produce valid positioning data; accuracy is mean error (m) or, for proximity, mean collocation error (m).",
	}
	type combo struct {
		name   string
		dev    string
		method string
		model  string
	}
	combos := []combo{
		{"rfid+proximity", "rfid", "proximity", "check-point"},
		{"bluetooth+trilateration", "bluetooth", "trilateration", "coverage"},
		{"wifi+fingerprinting", "wifi", "fingerprint", "coverage"},
	}
	for _, c := range combos {
		cfg := smallRun(seed)
		count := 12
		if c.dev == "bluetooth" {
			count = 24 // short range needs density for >=3 circles
		}
		cfg.Devices = []core.DeviceConfig{
			{Floor: 0, Model: c.model, Type: c.dev, Count: count},
			{Floor: 1, Model: c.model, Type: c.dev, Count: count},
		}
		cfg.Positioning = core.PositioningConfig{Method: c.method}
		ds, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", c.name, err)
		}
		var rows int
		var acc float64
		switch c.method {
		case "proximity":
			rows = len(ds.Proximity)
			acc = proximityError(ds).Mean
		default:
			rows = len(ds.Estimates)
			stats, _ := core.EvaluateEstimates(ds.Trajectories, ds.Estimates)
			acc = stats.Mean
		}
		if rows == 0 {
			return nil, fmt.Errorf("E10 %s: no output rows", c.name)
		}
		t.AddRow(c.name, len(ds.Devices), len(ds.RSSI), rows, acc)
	}
	return t, nil
}

// officeTopo builds the office topology through the full IFC path.
func officeTopo() (*topo.Topology, error) {
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		return nil, err
	}
	b, _, err := ifc.Extract(f)
	if err != nil {
		return nil, err
	}
	return topo.Build(b, topo.DefaultOptions())
}
