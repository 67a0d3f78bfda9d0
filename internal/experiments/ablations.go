package experiments

import (
	"fmt"
	"time"

	"vita/internal/core"
	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/index"
	"vita/internal/rng"
	"vita/internal/topo"
)

// AblationLoS compares the explicit line-of-sight obstacle term against a
// constant penalty: LoS noise makes fingerprints more
// location-specific, improving fingerprinting accuracy.
func AblationLoS(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: line-of-sight wall noise vs constant penalty",
		Header: []string{"obstacle model", "rssi rows", "fp mean err m", "fp median m"},
		Notes:  "wall-aware Nob differentiates rooms; replacing it with a constant blurs fingerprints.",
	}
	for _, los := range []bool{true, false} {
		cfg := smallRun(seed)
		cfg.RSSI.DisableLineOfSight = !los
		cfg.RSSI.ConstantPenalty = 6
		ds, err := run(cfg)
		if err != nil {
			return nil, err
		}
		stats, _ := core.EvaluateEstimates(ds.Trajectories, ds.Estimates)
		name := "line-of-sight crossings"
		if !los {
			name = "constant penalty"
		}
		t.AddRow(name, len(ds.RSSI), stats.Mean, stats.Median)
	}
	return t, nil
}

// AblationIndex compares R-tree and grid indices on the device-in-range
// workload.
func AblationIndex(seed uint64) (*Table, error) {
	r := rng.New(seed)
	topology, err := officeTopo()
	if err != nil {
		return nil, err
	}
	devs, err := device.Deploy(topology.B, 0, device.DeploySpec{
		Model: device.Coverage, Type: device.WiFi, Count: 64,
	}, r)
	if err != nil {
		return nil, err
	}
	items := make([]index.Item, len(devs))
	for i, d := range devs {
		items[i] = d
	}
	rt := index.BulkLoad(items)
	bb := topology.B.Floors[0].BBox()
	grid := index.NewGrid(bb.Expand(40), 10)
	for _, it := range items {
		grid.Insert(it)
	}

	queries := make([]geom.Point, 2000)
	for i := range queries {
		queries[i] = geom.Pt(r.Range(bb.Min.X, bb.Max.X), r.Range(bb.Min.Y, bb.Max.Y))
	}

	t := &Table{
		ID:     "A2",
		Title:  "ablation: R-tree vs grid for device-in-range lookup (64 devices)",
		Header: []string{"index", "total results", "µs/query"},
		Notes:  "both return identical result sets; relative speed depends on device density and range.",
	}
	var rtreeTotal int
	start := time.Now()
	for _, q := range queries {
		for _, it := range rt.SearchPoint(q, nil) {
			if it.(*device.Device).InRange(q) {
				rtreeTotal++
			}
		}
	}
	rtUS := float64(time.Since(start).Microseconds()) / float64(len(queries))

	var gridTotal int
	start = time.Now()
	for _, q := range queries {
		for _, it := range grid.Search(geom.BBox{Min: q, Max: q}, nil) {
			if it.(*device.Device).InRange(q) {
				gridTotal++
			}
		}
	}
	gridUS := float64(time.Since(start).Microseconds()) / float64(len(queries))

	if rtreeTotal != gridTotal {
		return nil, fmt.Errorf("A2: result mismatch rtree=%d grid=%d", rtreeTotal, gridTotal)
	}
	t.AddRow("r-tree", rtreeTotal, rtUS)
	t.AddRow("grid", gridTotal, gridUS)
	return t, nil
}

// AblationRadioMapDensity sweeps the reference-location grid spacing.
func AblationRadioMapDensity(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: radio-map reference density vs fingerprinting accuracy",
		Header: []string{"spacing m", "reference points", "mean err m", "median m"},
		Notes:  "denser reference grids reduce quantization error until signal noise dominates.",
	}
	for _, spacing := range []float64{2, 4, 8} {
		cfg := smallRun(seed)
		cfg.Positioning = core.PositioningConfig{Method: "fingerprint", Spacing: spacing}
		ds, err := run(cfg)
		if err != nil {
			return nil, err
		}
		stats, _ := core.EvaluateEstimates(ds.Trajectories, ds.Estimates)
		refs := 0
		if ds.RadioMap != nil {
			refs = len(ds.RadioMap.Refs)
		}
		t.AddRow(spacing, refs, stats.Mean, stats.Median)
	}
	return t, nil
}

// AblationDecomposition toggles irregular-partition decomposition and
// measures its effect on the environment and routing.
func AblationDecomposition(seed uint64) (*Table, error) {
	r := rng.New(seed)
	t := &Table{
		ID:     "A4",
		Title:  "ablation: irregular-partition decomposition (mall atrium)",
		Header: []string{"decomposition", "partitions", "graph nodes", "routable pairs /30", "mean route m"},
		Notes:  "decomposition adds partitions and graph nodes; straight-leg routes through convex pieces respect the L-shaped atrium geometry.",
	}
	for _, on := range []bool{true, false} {
		f, err := ifc.Parse(ifc.MallIFC())
		if err != nil {
			return nil, err
		}
		b, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
		if err != nil {
			return nil, err
		}
		opts := topo.DefaultOptions()
		if !on {
			opts.Decompose = nil
		}
		topology, err := topo.Build(b, opts)
		if err != nil {
			return nil, err
		}
		nodes, _ := topology.GraphSize()
		routable := 0
		var meanDist float64
		rr := r.Split()
		for i := 0; i < 30; i++ {
			from, to, ok := randomODPair(topology, rr)
			if !ok {
				continue
			}
			route, err := topology.Route(from, to, topo.MinDistance, topo.DefaultSpeedModel())
			if err != nil {
				continue
			}
			routable++
			meanDist += route.Distance
		}
		if routable > 0 {
			meanDist /= float64(routable)
		}
		name := "on"
		if !on {
			name = "off"
		}
		t.AddRow(name, topology.B.PartitionCount(), nodes, routable, meanDist)
	}
	return t, nil
}
