package experiments

import (
	"vita/internal/core"
	"vita/internal/ifc"
	"vita/internal/rng"
	"vita/internal/topo"
)

// AblationLoS compares the explicit line-of-sight obstacle term against a
// constant penalty. The obstacle model changes RSSI values, not which rows
// exist, so both arms emit the same rows; neither arm fingerprints better at
// every seed (mean error line-of-sight vs constant: 2.16 vs 2.55 m at seed
// 1, 2.52 vs 2.05 m at seed 7, 2.32 vs 2.35 m at seed 42).
func AblationLoS(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: line-of-sight wall noise vs constant penalty",
		Header: []string{"obstacle model", "rssi rows", "fp mean err m", "fp median m"},
		Notes:  "the obstacle model changes RSSI values, not which rows exist: both arms emit the same rows; which one fingerprints better depends on the seed.",
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
		b, _, err := ifc.Extract(f)
		if err != nil {
			return nil, err
		}
		opts := topo.DefaultOptions()
		if !on {
			opts.Decompose = false
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
			route, err := topology.Route(from, to, topo.MinDistance)
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
