// Query: generate indoor mobility data for the default office, store it as
// VTB, and ask spatio-temporal questions of it with the engine vitaquery and
// vitaserve run — the consumption side the paper motivates the generator
// with. Covers the stored-dataset operators (range × time window, kNN at an
// instant, snapshot density, trajectory retrieval, dwell time per partition),
// each printed exactly as vitaquery prints it, plus a standing range query
// replayed over every sample.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"vita"
	"vita/internal/geom"
)

func main() {
	cfg := vita.DefaultConfig()
	cfg.Seed = 2016
	cfg.Trajectory.Duration = 300 // five simulated minutes

	// Stream the run into a VTB dataset directory, the way vitagen does.
	dir, err := os.MkdirTemp("", "vita-query")
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
	fmt.Printf("dataset: %d ground-truth samples from %d objects\n", ds.TrajectoryStats.Samples, ds.TrajectoryStats.Spawned)

	qd, err := vita.OpenQueryDataset(dir, vita.QueryServeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer qd.Close()

	// 1. Spatial range × time window: who crossed the 12×8 m patch near the
	// floor-0 entrance during ten seconds of the third minute?
	box := geom.BBox{Min: geom.Pt(2, 2), Max: geom.Pt(14, 10)}
	fmt.Printf("\nrange %v × [120, 130]s on floor 0:\n", box)
	hits, err := qd.Range(vita.RangeRequest{Floor: 0, Box: box, T0: 120, T1: 130})
	show(hits, err)
	fmt.Printf("objects %v\n", hits.Objects)

	// 2. kNN at an instant: the five objects nearest the middle of floor 0
	// at t=150, positions interpolated between ground-truth samples.
	center := geom.Pt(20, 10)
	fmt.Printf("\n5-NN of %s on floor 0 at t=150:\n", center)
	show(qd.KNN(vita.KNNRequest{Floor: 0, At: center, T: 150, K: 5}))

	// 3. Snapshot density: how crowded is each partition mid-run?
	fmt.Println("\npartition density at t=150:")
	show(qd.Density(vita.DensityRequest{T: 150}))

	// 4. Trajectory retrieval: one object's first ten seconds.
	fmt.Println("\nobject 1, first ten seconds:")
	show(qd.Traj(vita.TrajRequest{Obj: 1, T0: 0, T1: 10}))

	// 5. Dwell time per partition on floor 0 over the whole run.
	fmt.Println("\ndwell time per partition on floor 0:")
	show(qd.Dwell(vita.DwellRequest{Floor: 0, T0: 0, T1: 300}))

	// 6. Standing query: replay every sample, in time order, through a range
	// query over the entrance patch and count who crossed its boundary.
	w, err := qd.Watch(vita.WatchRequest{Floor: 0, Box: box})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstanding query over %v on floor 0: %d enter/exit events, %d inside at end\n",
		box, len(w.Events), len(w.Inside))
}

// show prints an answer as vitaquery prints it.
func show[R interface{ WriteText(io.Writer) error }](resp R, err error) {
	if err != nil {
		log.Fatal(err)
	}
	if err := resp.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
