// Mall scenario (paper §1 "customer engagements", §3.1 crowd-outliers):
// customers gather around the shops currently on sale while outliers roam;
// Bluetooth beacons deployed with the coverage model feed trilateration.
// The example then mines the busiest shops from the positioning output and
// checks them against the ground truth — the kind of indoor mobility
// analytics the toolkit exists to serve.
package main

import (
	"fmt"
	"log"
	"sort"

	"vita"
)

func main() {
	cfg := vita.DefaultConfig()
	cfg.Seed = 99
	cfg.Building = vita.BuildingConfig{Source: "synthetic:mall"}
	cfg.Devices = []vita.DeviceConfig{
		{Floor: 0, Model: "coverage", Type: "bluetooth", Count: 30},
		{Floor: 1, Model: "coverage", Type: "bluetooth", Count: 30},
	}
	cfg.Objects = vita.ObjectConfig{
		Count:        60,
		MinLifespan:  200,
		MaxLifespan:  400,
		MaxSpeed:     1.4,
		Distribution: "crowd-outliers", // hot areas = "(on sale)" shops
		ArrivalRate:  0.05,             // shoppers keep arriving
	}
	cfg.Trajectory = vita.TrajectoryConfig{Duration: 400, SampleInterval: 1}
	cfg.Positioning = vita.PositioningConfig{Method: "trilateration", SampleInterval: 2}

	ds, err := vita.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mall run: %d shoppers spawned, %d RSSI rows, %d estimates\n",
		ds.TrajectoryStats.Spawned, len(ds.RSSI), len(ds.Estimates))

	// Rank partitions by estimated visits (from positioning data).
	estVisits := map[string]int{}
	for _, e := range ds.Estimates {
		estVisits[rootID(e.Loc.Partition)]++
	}
	// Ground-truth visits for comparison.
	trueVisits := map[string]int{}
	for _, s := range ds.Trajectories.All() {
		trueVisits[rootID(s.Loc.Partition)]++
	}

	fmt.Println("\nbusiest areas (estimated vs ground truth):")
	for i, name := range topK(estVisits, 5) {
		fmt.Printf("  %d. %-12s est=%-6d true=%d\n", i+1, name, estVisits[name], trueVisits[name])
	}

	stats, _ := vita.EvaluateEstimates(ds.Trajectories, ds.Estimates)
	fmt.Printf("\ntrilateration accuracy: %s\n", stats)
}

// rootID collapses decomposed sub-partitions ("F0-ATRIUM.2") onto their
// original space.
func rootID(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '.' {
			return id[:i]
		}
	}
	return id
}

func topK(m map[string]int, k int) []string {
	keys := make([]string, 0, len(m))
	for s := range m {
		if s != "" {
			keys = append(keys, s)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}
