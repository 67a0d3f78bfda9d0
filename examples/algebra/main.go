// Algebra: compose spatio-temporal analytics from the vectorized operator
// algebra instead of the canned query operators. Generates a dataset,
// persists it as VTB, and runs three plans over the file: a pushed-down
// range scan (watch the zone maps prune blocks), the dwell-time-per-room
// analytic exactly as /v1/dwell executes it, and a time-bucketed occupancy
// roll-up no canned operator offers. docs/ARCHITECTURE.md documents the
// layer; internal/plan holds the operators.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vita"
	"vita/internal/geom"
)

func main() {
	cfg := vita.DefaultConfig()
	cfg.Seed = 2016
	cfg.Trajectory.Duration = 300 // five simulated minutes

	// Stream the run into a VTB file. The sink receives rows in global time
	// order, which is what gives the blocks tight time zone maps — and the
	// plans below their pruning.
	dir, err := os.MkdirTemp("", "vita-algebra")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sink, err := vita.NewDirSink(dir, vita.StorageVTB)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := vita.GenerateTo(cfg, sink)
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "trajectory.vtb")
	fmt.Printf("dataset: %d samples → %s\n\n", ds.TrajectoryStats.Samples, path)

	// 1. A pushed-down scan: the planner folds all three predicates into the
	// scan's block predicate, so blocks outside the window/floor/box are
	// never decoded.
	box := geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(14, 10)}
	scan, err := vita.NewPlanScan(vita.NewPlanFileSource(path)).
		Filter(vita.TimeBetween(120, 180), vita.OnFloor(0), vita.InBox(box)).
		Compile()
	if err != nil {
		log.Fatal(err)
	}
	hits, err := vita.CollectPlanSamples(scan)
	if err != nil {
		log.Fatal(err)
	}
	st := scan.Stats()
	fmt.Printf("range %v × [120, 180]s on floor 0: %d samples\n", box, len(hits))
	fmt.Printf("  pushdown: scanned %d of %d blocks (%d pruned by zone maps)\n\n",
		st.BlocksScanned, st.BlocksTotal, st.BlocksPruned)

	// 2. Dwell-time-per-room — the exact plan behind /v1/dwell: order rows by
	// (object, time), turn inter-sample gaps into per-row seconds, sum them
	// per (partition, object), then roll up per partition, counting the
	// distinct objects.
	dwell, err := vita.NewPlanScan(vita.NewPlanFileSource(path)).
		Filter(vita.TimeBetween(0, 300)).
		OrderBy(vita.Asc(vita.ColObjID), vita.Asc(vita.ColT)).
		Derive(vita.DwellGaps(vita.DefaultMaxGap)).
		Aggregate(vita.GroupBy(vita.ColPartition, vita.ColObjID),
			vita.PlanSum(vita.ColVal, vita.ColVal)).
		Aggregate(vita.GroupBy(vita.ColPartition),
			vita.PlanSum(vita.ColVal, vita.ColVal), vita.PlanCount(vita.ColObjID)).
		Compile()
	if err != nil {
		log.Fatal(err)
	}
	rooms, err := vita.CollectPlanRows(dwell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dwell time per partition (whole run):")
	for _, r := range rooms {
		// Each output row carries the group key in its sample (partition) and
		// the aggregates in Val (summed seconds) and ObjID (distinct objects).
		fmt.Printf("  %-14s %7.1f s across %d objects\n",
			r.Sample.Loc.Partition, r.Val, r.Sample.ObjID)
	}

	// 3. Something no canned operator answers: peak per-minute occupancy —
	// bucket time into 60 s windows, count samples per (bucket, partition),
	// and keep the five busiest buckets.
	busiest, err := vita.NewPlanScan(vita.NewPlanFileSource(path)).
		TimeBucket(60).
		Aggregate(vita.GroupBy(vita.ColT, vita.ColPartition),
			vita.PlanCount(vita.ColObjID)).
		OrderBy(vita.Desc(vita.ColObjID), vita.Asc(vita.ColT), vita.Asc(vita.ColPartition)).
		Limit(5).
		Compile()
	if err != nil {
		log.Fatal(err)
	}
	top, err := vita.CollectPlanRows(busiest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbusiest (minute, partition) cells by sample count:")
	for _, r := range top {
		fmt.Printf("  t=[%3.0f, %3.0f)s %-14s %d samples\n",
			r.Sample.T, r.Sample.T+60, r.Sample.Loc.Partition, r.Sample.ObjID)
	}
}
