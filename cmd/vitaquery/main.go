// Command vitaquery serves spatio-temporal queries over the output of
// vitagen. It opens the trajectory data in the data directory — a segment
// log, trajectory.vtb (the columnar binary store) or trajectory.csv, detected
// by magic bytes rather than extension — and answers one query per
// invocation, as a plan over internal/plan:
//
//	vitaquery -data out range -floor 0 -box 0,0,20,15 -t0 0 -t1 120
//	vitaquery -data out knn -floor 0 -at 10,7.5 -t 60 -k 5
//	vitaquery -data out density -t 60
//	vitaquery -data out traj -obj 3 -t0 0 -t1 300
//	vitaquery -data out dwell -floor 0 -t0 0 -t1 600
//	vitaquery -data out watch -floor 0 -box 0,0,20,15
//	vitaquery -data out info
//
// With a VTB file the query predicate is pushed into the load: each
// subcommand derives the block predicate its operator allows (range prunes
// by window+floor+box, traj by object+window, dwell by window+floor,
// knn/density by the window widened by -maxgap so interpolation still sees
// its bracketing samples) and the scan skips every block whose zone map
// rules it out. The file is memory-mapped by default (-mmap=false falls back
// to plain reads) and the surviving blocks stream, a small window at a time,
// through a column-batch cursor straight into the plan's operators, so peak
// memory beyond what the operators buffer is one decoded window per segment
// — the stderr stats line reports how many blocks were read and the most
// bytes one window decoded. A CSV file is read whole and re-encoded as
// in-memory blocks once, at open, then queried the same way.
//
// With -server URL the same operators are sent to a running vitaserve
// daemon instead of touching local files; execution and formatting go
// through the exact same internal/serve pipeline, so the output is
// byte-identical to local execution (watch excepted — it needs the raw
// sample stream and stays local-only).
//
// -trace prints the per-operator execution trace — rows, batches, wall time,
// and zone-map pruning per operator — on stderr, locally or against a server
// (the daemon returns the span tree when asked with trace=1). Stdout is
// unchanged, so traced and untraced runs stay byte-identical where it counts.
//
// watch replays the dataset sample-by-sample through a standing range query
// and prints every enter/move/exit transition — the online half of the
// engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/query"
	"vita/internal/serve"
	"vita/internal/trajectory"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitaquery:", err)
		os.Exit(1)
	}
}

// backend answers the query operators: a local serve.Dataset or a
// serve.Client talking to a vitaserve daemon. Both return the same response
// types rendered by the same formatters, which is what makes remote output
// byte-identical to local output.
type backend interface {
	Range(serve.RangeRequest) (*serve.RangeResponse, error)
	KNN(serve.KNNRequest) (*serve.KNNResponse, error)
	Density(serve.DensityRequest) (*serve.DensityResponse, error)
	Traj(serve.TrajRequest) (*serve.TrajResponse, error)
	Dwell(serve.DwellRequest) (*serve.DwellResponse, error)
	Info(trace bool) (*serve.InfoResponse, error)
}

func run() error {
	dataDir := flag.String("data", "out", "directory holding vitagen output")
	server := flag.String("server", "", "base URL of a running vitaserve daemon (empty = local execution)")
	maxGap := flag.Float64("maxgap", 10, "max sample gap in seconds for instant queries (local mode)")
	useMmap := flag.Bool("mmap", true, "memory-map local VTB files (false = plain file reads)")
	trace := flag.Bool("trace", false, "print the per-operator execution trace on stderr (stdout is unchanged)")
	logOpts := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(os.Stderr); err != nil {
		return err
	}
	if flag.NArg() == 0 {
		return fmt.Errorf("missing subcommand: range | knn | density | traj | dwell | watch | info")
	}

	var be backend
	var ds *serve.Dataset // non-nil in local mode; watch and stderr stats need it
	if *server != "" {
		be = &serve.Client{Base: *server}
	} else {
		var err error
		ds, err = serve.Open(*dataDir, serve.Config{
			MaxGap: *maxGap,
			// One-shot execution: nothing would ever hit a warm cache.
			CacheBytes:  -1,
			DisableMmap: !*useMmap,
		})
		if err != nil {
			return err
		}
		defer ds.Close()
		be = ds
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "range":
		return runRange(be, ds, *trace, args)
	case "knn":
		return runKNN(be, ds, *trace, args)
	case "density":
		return runDensity(be, ds, *trace, args)
	case "traj":
		return runTraj(be, ds, *trace, args)
	case "dwell":
		return runDwell(be, ds, *trace, args)
	case "watch":
		if ds == nil {
			return fmt.Errorf("watch needs the raw sample stream and is not supported with -server")
		}
		return runWatch(ds, args)
	case "info":
		return runInfo(be, ds, *trace)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// reportStats mirrors the pre-daemon behavior: in local mode over a VTB
// file, a stderr line says how effective zone-map pruning was — and how much
// one window of the scan decoded at once, which is what makes the
// bounded-memory claim of one-shot scans observable.
func reportStats(ds *serve.Dataset, st serve.Stats) {
	if ds == nil || st.Format != "vtb" {
		return
	}
	line := fmt.Sprintf("vitaquery: %s: read %d of %d blocks (%d pruned by zone maps), %d rows matched",
		filepath.Base(ds.Path()), st.Scan.BlocksScanned, st.Scan.BlocksTotal,
		st.Scan.BlocksPruned, st.Scan.RowsMatched)
	if st.PeakDecodedBytes > 0 {
		line += fmt.Sprintf(", peak %.1f KiB decoded", float64(st.PeakDecodedBytes)/1024)
	}
	fmt.Fprintln(os.Stderr, line)
}

// reportTrace renders the per-operator span tree on stderr when -trace asked
// for one. Stdout stays byte-identical to an untraced run: the trace is
// diagnostics, not part of the answer.
func reportTrace(span *obs.Span) {
	if span == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "vitaquery: trace:")
	span.WriteTree(os.Stderr)
}

func runRange(be backend, ds *serve.Dataset, trace bool, args []string) error {
	fs := flag.NewFlagSet("range", flag.ExitOnError)
	floor := fs.Int("floor", -1, "floor to search (-1 = all)")
	boxStr := fs.String("box", "", "spatial box x0,y0,x1,y1 (required)")
	t0 := fs.Float64("t0", 0, "window start (s)")
	t1 := fs.Float64("t1", 0, "window end (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	box, err := serve.ParseBox(*boxStr)
	if err != nil {
		return err
	}
	resp, err := be.Range(serve.RangeRequest{Floor: *floor, Box: box, T0: *t0, T1: *t1, Trace: trace})
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}

func runKNN(be backend, ds *serve.Dataset, trace bool, args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	floor := fs.Int("floor", 0, "floor to search")
	atStr := fs.String("at", "", "query point x,y (required)")
	t := fs.Float64("t", 0, "query instant (s)")
	k := fs.Int("k", 5, "number of neighbors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := serve.ParsePoint(*atStr)
	if err != nil {
		return err
	}
	resp, err := be.KNN(serve.KNNRequest{Floor: *floor, At: p, T: *t, K: *k, Trace: trace})
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}

func runDensity(be backend, ds *serve.Dataset, trace bool, args []string) error {
	fs := flag.NewFlagSet("density", flag.ExitOnError)
	t := fs.Float64("t", 0, "snapshot instant (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := be.Density(serve.DensityRequest{T: *t, Trace: trace})
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}

func runTraj(be backend, ds *serve.Dataset, trace bool, args []string) error {
	fs := flag.NewFlagSet("traj", flag.ExitOnError)
	obj := fs.Int("obj", 0, "object ID")
	t0 := fs.Float64("t0", 0, "window start (s)")
	t1 := fs.Float64("t1", 1e18, "window end (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := be.Traj(serve.TrajRequest{Obj: *obj, T0: *t0, T1: *t1, Trace: trace})
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}

func runDwell(be backend, ds *serve.Dataset, trace bool, args []string) error {
	fs := flag.NewFlagSet("dwell", flag.ExitOnError)
	floor := fs.Int("floor", -1, "floor to analyze (-1 = all)")
	t0 := fs.Float64("t0", 0, "window start (s)")
	t1 := fs.Float64("t1", 1e18, "window end (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := be.Dwell(serve.DwellRequest{Floor: *floor, T0: *t0, T1: *t1, Trace: trace})
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}

func runWatch(ds *serve.Dataset, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	floor := fs.Int("floor", -1, "floor to watch (-1 = all)")
	boxStr := fs.String("box", "", "spatial box x0,y0,x1,y1 (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	box, err := serve.ParseBox(*boxStr)
	if err != nil {
		return err
	}
	// The standing query needs every sample: an object exits when a sample
	// lands outside the box (or floor), so nothing can be pruned away.
	samples, stats, err := ds.Samples(colstore.Predicate{})
	if err != nil {
		return err
	}
	reportStats(ds, stats)
	// Replay in global time order so the transition log reads like a live
	// feed.
	ordered := make([]trajectory.Sample, len(samples))
	copy(ordered, samples)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].T < ordered[j].T })

	eng := query.NewContinuousEngine()
	events := 0
	sub := eng.Subscribe(*floor, box, func(e query.Event) {
		if e.Kind == query.Move {
			return // only log boundary crossings
		}
		events++
		fmt.Printf("t %8.2f  %-5s obj %-4d %s\n", e.Sample.T, e.Kind, e.Sample.ObjID, e.Sample.Loc)
	})
	eng.FeedAll(ordered)
	fmt.Printf("%d enter/exit events; %d objects inside at end of replay\n", events, len(sub.Inside()))
	return nil
}

func runInfo(be backend, ds *serve.Dataset, trace bool) error {
	resp, err := be.Info(trace)
	if err != nil {
		return err
	}
	reportStats(ds, resp.Stats)
	reportTrace(resp.Trace)
	return resp.WriteText(os.Stdout)
}
