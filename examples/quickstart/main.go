// Quickstart: generate indoor mobility data for the synthetic two-floor
// office with the default configuration, then compare the positioning output
// against the preserved ground truth.
package main

import (
	"fmt"
	"log"

	"vita"
)

func main() {
	cfg := vita.DefaultConfig()
	cfg.Seed = 2016
	cfg.Trajectory.Duration = 300 // five simulated minutes

	ds, err := vita.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("environment: %s — %d partitions over %d floors, %d staircase(s)\n",
		ds.Building.Name, ds.Building.PartitionCount(), len(ds.Building.Floors),
		len(ds.Building.Staircases))
	fmt.Printf("deployed devices: %d\n", len(ds.Devices))
	fmt.Printf("ground-truth samples: %d (1 per object per second)\n", ds.TrajectoryStats.Samples)
	fmt.Printf("raw RSSI measurements: %d\n", len(ds.RSSI))
	fmt.Printf("positioning estimates (Wi-Fi fingerprinting/kNN): %d\n", len(ds.Estimates))

	// The point of a generator that preserves ground truth (paper §1): we
	// can score the synthetic positioning data exactly.
	stats, floorMiss := vita.EvaluateEstimates(ds.Trajectories, ds.Estimates)
	fmt.Printf("accuracy vs ground truth: %s (floor mismatches: %d)\n", stats, floorMiss)
	fmt.Printf("partition hit rate: %.0f%%\n", 100*vita.PartitionHitRate(ds.Building, ds.Trajectories, ds.Estimates))

	// Follow one object's day: slot i of the ground truth is object i+1.
	if series := ds.Trajectories[0]; len(series) > 0 {
		fmt.Printf("\nobject 1: %d ground-truth points, from %s to %s\n",
			len(series), series[0].Loc, series[len(series)-1].Loc)
	}
}
