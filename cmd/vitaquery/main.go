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
// Locally, each operator's plan pushes its predicate into the scan (range
// prunes by window+floor+box, traj by object+window, dwell by window+floor,
// knn/density by the window widened by -maxgap), so zone maps skip blocks
// before anything is decoded. VTB files are memory-mapped (-mmap=false reads
// them instead) and stream a small window of blocks at a time; the stderr
// line reports the blocks read and the most bytes one window decoded. A CSV
// file is re-encoded as in-memory blocks once, at open.
//
// Every subcommand is an operator of serve.Operators, run the same way
// locally and with -server URL (a running vitaserve daemon): its flags are
// the operator's own parameter declaration, every flag becomes a query
// parameter for the server's decoder (-t0 NaN is refused with the server's
// message), and the request runs on a serve.Querier — the opened dataset or
// a serve.Client — so the output is byte-identical. -maxgap and -mmap shape
// local execution only and are refused with -server.
//
// -trace prints the per-operator execution trace — rows, batches, wall time,
// and zone-map pruning per operator — on stderr, locally or against a server
// (the daemon returns the span tree when asked with trace=1). Stdout is
// unchanged, so traced and untraced runs stay byte-identical where it counts.
//
// watch replays every sample, in (time, object) order, through a standing
// range query and prints each object's enter and exit transitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vita/internal/obs"
	"vita/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitaquery:", err)
		os.Exit(1)
	}
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
	cmd := flag.Arg(0)
	op := serve.OperatorNamed(cmd)
	if op == nil {
		var names []string
		for _, o := range serve.Operators {
			names = append(names, o.Name)
		}
		return fmt.Errorf("subcommand %q: want one of %s", cmd, strings.Join(names, " | "))
	}

	var q serve.Querier
	var ds *serve.Dataset // non-nil in local mode; the stderr stats need it
	if *server != "" {
		var local error
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "maxgap" || f.Name == "mmap" {
				local = fmt.Errorf("-%s applies to local execution only; the daemon at -server has its own", f.Name)
			}
		})
		if local != nil {
			return local
		}
		q = &serve.Client{Base: *server}
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
		q = ds
	}

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	params := op.Flags(fs)
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		return err
	}
	resp, err := op.Run(q, params, *trace)
	if err != nil {
		return err
	}
	reportStats(ds, resp.Meta().Stats)
	if span := resp.Meta().Trace; span != nil {
		fmt.Fprintln(os.Stderr, "vitaquery: trace:")
		span.WriteTree(os.Stderr)
	}
	return resp.WriteText(os.Stdout)
}

// reportStats says on stderr, in local mode over VTB, how well zone maps
// pruned and the most one scan window decoded — the bounded-memory claim of
// one-shot scans, made observable.
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
