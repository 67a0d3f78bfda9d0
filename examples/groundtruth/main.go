// Ground-truth workflow (paper §1, purposes (1) and (2)): generate the same
// movements once, derive positioning data at a low sampling frequency while
// preserving the underlying raw trajectory at fine granularity, and use the
// latter as ground truth to score two positioning methods head to head —
// exactly the effectiveness-evaluation loop the paper argues real indoor
// positioning data cannot support.
package main

import (
	"fmt"
	"log"

	"vita"
)

func main() {
	base := vita.DefaultConfig()
	base.Seed = 1234
	base.Trajectory = vita.TrajectoryConfig{
		Duration:       300,
		SampleInterval: 0.5, // fine-grained ground truth ...
	}
	base.Positioning.SampleInterval = 4 // ... low-frequency positioning data
	base.Devices = []vita.DeviceConfig{
		{Floor: 0, Model: "coverage", Type: "wifi", Count: 12},
		{Floor: 1, Model: "coverage", Type: "wifi", Count: 12},
	}

	fmt.Println("method comparison on identical movements (seed-pinned):")
	fmt.Printf("%-28s %8s %10s %10s %10s\n", "method", "records", "mean err", "median", "p95")
	for _, method := range []struct {
		name string
		cfg  vita.PositioningConfig
	}{
		{"trilateration", vita.PositioningConfig{Method: "trilateration", SampleInterval: 4}},
		{"fingerprint/knn", vita.PositioningConfig{Method: "fingerprint", Algorithm: "knn", SampleInterval: 4}},
		{"fingerprint/naive-bayes", vita.PositioningConfig{Method: "fingerprint", Algorithm: "bayes", SampleInterval: 4}},
	} {
		cfg := base
		cfg.Positioning = method.cfg
		ds, err := vita.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		stats, _ := vita.EvaluateEstimates(ds.Trajectories, ds.Estimates)
		fmt.Printf("%-28s %8d %9.2fm %9.2fm %9.2fm\n",
			method.name, stats.N, stats.Mean, stats.Median, stats.P95)
	}

	fmt.Println("\nnote: identical seeds make every method see the same walks — the")
	fmt.Println("raw trajectory store is the ground truth the paper says real indoor")
	fmt.Println("positioning data is missing.")
}
