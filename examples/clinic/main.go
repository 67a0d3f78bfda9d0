// Clinic scenario (paper §1 "medical services", §5 step 6 "RFID +
// proximity"): RFID readers at room entrances (check-point deployment) track
// which patients were near which rooms and for how long — symbolic proximity
// data in the (o_id, d_id, ts, te) format of paper §4.2.
package main

import (
	"fmt"
	"log"
	"os"

	"vita"
)

func main() {
	cfg := vita.DefaultConfig()
	cfg.Seed = 7
	cfg.Building = vita.BuildingConfig{Source: "synthetic:clinic"}
	cfg.Devices = []vita.DeviceConfig{
		// RFID readers at every entrance and big-room hotspot.
		{Floor: 0, Model: "check-point", Type: "rfid"},
	}
	cfg.Objects = vita.ObjectConfig{
		Count:        15,
		MinLifespan:  200,
		MaxLifespan:  500,
		MaxSpeed:     1.2,
		Distribution: "uniform",
		// Patients keep arriving at the waiting hall.
		ArrivalRate:        0.03,
		EmergingPartitions: []string{"F0-WAIT"},
	}
	cfg.Trajectory = vita.TrajectoryConfig{Duration: 500, SampleInterval: 1}
	cfg.Positioning = vita.PositioningConfig{Method: "proximity"}

	ds, err := vita.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	recs := ds.Proximity
	fmt.Printf("clinic run: %d patients, %d RFID detections, %d proximity records\n",
		ds.TrajectoryStats.Spawned, len(ds.RSSI), len(recs))

	// Dwell time per reader: which check-points are busiest?
	dwell := map[string]float64{}
	visits := map[string]int{}
	for _, r := range recs {
		dwell[r.DeviceID] += r.Duration()
		visits[r.DeviceID]++
	}
	fmt.Println("\nper-reader activity:")
	for _, d := range ds.Devices {
		if visits[d.ID] == 0 {
			continue
		}
		fmt.Printf("  %-24s visits=%-4d total dwell=%.0fs\n", d.ID, visits[d.ID], dwell[d.ID])
	}

	// Persist the proximity data in the paper's record format.
	if err := vita.WriteProximityCSV(os.Stdout, recs[:min(5, len(recs))]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(… %d more rows)\n", max(0, len(recs)-5))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
