// Command vitagen runs Vita's full generation pipeline from a JSON
// configuration and writes the produced data files, following the demo's
// six-step path (paper §5): import DBI → view environment → deploy devices →
// generate objects/trajectories → generate RSSI → run the positioning
// method.
//
// Usage:
//
//	vitagen -config cfg.json -out outdir [-render] [-snapshot 60]
//	vitagen -config cfg.json -format vtb    # columnar binary instead of CSV
//	vitagen -config cfg.json -parallelism 8 # shard generation over 8 workers
//	vitagen -format vtb -segment-mb 64      # live segment log instead of flat files
//	vitagen -default > cfg.json             # print the default config
//
// Generation is sharded by object across a worker pool (-parallelism, or the
// config's "parallelism" field; 0 = all cores). The produced data is
// byte-identical for any worker count.
//
// The bulk outputs (trajectory, rssi) stream into the chosen -format while
// the simulation runs — csv (the paper's textual records, 4-decimal
// quantization) or vtb (the lossless block-columnar binary of
// internal/colstore, which vitaquery scans with zone-map pruning).
// Trajectory rows are written in global time order, RSSI rows grouped by
// object. Derived tables (estimates, proximity) are always CSV.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"vita/internal/colstore"
	"vita/internal/core"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/render"
	"vita/internal/seglog"
	"vita/internal/serve"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitagen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "JSON configuration file (empty = defaults)")
		outDir     = flag.String("out", "out", "output directory for the data files")
		doRender   = flag.Bool("render", false, "render ASCII floor plans with the final snapshot")
		snapshotAt = flag.Float64("snapshot", -1, "extract an object snapshot at this simulation second")
		printDef   = flag.Bool("default", false, "print the default configuration as JSON and exit")
		parallel   = flag.Int("parallelism", -1, "generation worker count (0 = all cores; -1 = value from config; output is identical for any setting)")
		formatStr  = flag.String("format", "csv", "bulk output format: csv | vtb")
		segMB      = flag.Float64("segment-mb", 0, "write bulk outputs as a live segment log, rolling segments at this many MiB (vtb only; 0 = flat files)")
		segRows    = flag.Int("segment-rows", 0, "additionally roll segments after this many rows (implies a segment log; vtb only)")
	)
	logOpts := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(os.Stderr); err != nil {
		return err
	}

	if *printDef {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(core.DefaultConfig())
	}

	cfg := core.DefaultConfig()
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		loaded, err := core.LoadConfig(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg = loaded
	}

	switch {
	case *parallel >= 0:
		cfg.Parallelism = *parallel
	case *parallel < -1:
		return fmt.Errorf("-parallelism must be >= 0 (or -1 to use the config value), got %d", *parallel)
	}

	format, err := storage.ParseFormat(*formatStr)
	if err != nil {
		return err
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return err
	}
	segmented := *segMB > 0 || *segRows > 0
	if segmented && format != storage.FormatVTB {
		return fmt.Errorf("-segment-mb/-segment-rows require -format vtb (segment logs have no csv form)")
	}
	var sink *core.DirSink
	if segmented {
		sink, err = core.NewSegmentedDirSink(*outDir, seglog.WriterOptions{
			MaxSegmentBytes: int64(*segMB * (1 << 20)),
			MaxSegmentRows:  *segRows,
		})
	} else {
		sink, err = core.NewDirSink(*outDir, format)
	}
	if err != nil {
		return err
	}
	ds, err := p.RunTo(sink)
	if err != nil {
		// Remove the partial bulk files so a truncated trajectory.vtb from
		// this failed run cannot shadow valid data from an earlier one.
		sink.Discard()
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Printf("parallelism     %d workers\n", p.Parallelism())

	// Summary, mirroring Figure 1's data products.
	fmt.Printf("building        %s (%d floors, %d partitions, %d doors, %d staircases)\n",
		ds.Building.ID, len(ds.Building.Floors), ds.Building.PartitionCount(),
		ds.Building.DoorCount(), len(ds.Building.Staircases))
	if ds.DBIReport != nil && len(ds.DBIReport.Issues) > 0 {
		fmt.Printf("dbi issues      %d (see report below)\n", len(ds.DBIReport.Issues))
	}
	fmt.Printf("devices         %d\n", len(ds.Devices))
	fmt.Printf("trajectory rows %d (objects spawned %d)\n", ds.TrajectoryStats.Samples, ds.TrajectoryStats.Spawned)
	fmt.Printf("routes          %d planned, %d failed\n", ds.TrajectoryStats.RoutesPlanned, ds.TrajectoryStats.RouteFailures)
	fmt.Printf("rssi rows       %d\n", ds.RSSICount)
	fmt.Printf("estimates       %d\n", len(ds.Estimates))
	fmt.Printf("prob estimates  %d\n", len(ds.ProbEstimates))
	fmt.Printf("proximity rows  %d\n", len(ds.Proximity))
	if len(ds.Estimates) > 0 {
		stats, floorMiss := core.EvaluateEstimates(ds.Trajectories, ds.Estimates)
		fmt.Printf("accuracy        %s (floor mismatches %d)\n", stats, floorMiss)
	}
	if ds.DBIReport != nil {
		for _, issue := range ds.DBIReport.Issues {
			fmt.Println("  dbi:", issue)
		}
	}

	if segmented {
		trajSegs, rssiSegs := sink.Segments()
		fmt.Printf("wrote %d trajectory segments to %s\n", trajSegs, seglog.LogDir(*outDir, colstore.KindTrajectory))
		fmt.Printf("wrote %d rssi segments to %s\n", rssiSegs, seglog.LogDir(*outDir, colstore.KindRSSI))
	} else {
		for _, name := range []string{"trajectory" + format.Ext(), "rssi" + format.Ext()} {
			if st, err := os.Stat(filepath.Join(*outDir, name)); err == nil {
				fmt.Printf("wrote %-14s %d bytes\n", name, st.Size())
			}
		}
		fmt.Printf("wrote %s files to %s\n", strings.ToUpper(string(format)), *outDir)
	}

	if *doRender || *snapshotAt >= 0 {
		at := *snapshotAt
		if at < 0 {
			at = cfg.Trajectory.Duration
		}
		snap, err := snapshot(ds, at)
		if err != nil {
			return err
		}
		fmt.Printf("\nsnapshot at t=%.0fs: %d objects\n", at, len(snap))
		fmt.Print(render.Building(ds.Building, ds.Devices, snap, render.Options{Width: 100}))
	}
	return nil
}

// snapshot returns the objects' interpolated positions at t, as the server
// folds them for knn and density: only objects with a sample within
// serve.DefaultMaxGap of t appear.
func snapshot(ds *core.Dataset, t float64) ([]trajectory.Sample, error) {
	const gap = serve.DefaultMaxGap
	c, err := plan.NewScan(plan.SliceSource{Samples: slices.Concat(ds.Trajectories...)}).
		Filter(plan.TimeBetween(t-gap, t+gap)).
		SnapshotAt(t, gap).
		Compile()
	if err != nil {
		return nil, err
	}
	return plan.CollectSamples(c)
}
