// Command vitaload replays a configurable mix of the query operators
// against a dataset — a live vitaserve daemon (-server) or an in-process
// open of the data directory (-data) — and reports throughput and latency
// quantiles per endpoint, plus the server-side /metricsz counter delta the
// run cost. It is the load-testing and SLO-gating harness for the serving
// stack.
//
//	vitaload -server http://127.0.0.1:7617 -mode open -rate 500 -duration 30s
//	vitaload -data out -mode closed -concurrency 32 -duration 10s
//
// Two driving modes (see internal/load for the full contract):
//
//   - open: requests depart on a fixed schedule of -rate per second, and
//     latency is measured from the scheduled departure — queueing behind a
//     slow server inflates the numbers instead of slowing the generator
//     (no coordinated omission).
//   - closed: -concurrency workers issue requests back-to-back; throughput
//     floats to what the server sustains.
//
// The mix is weighted per operator (-mix "range=40,knn=25,traj=20,
// density=10,dwell=5") with parameters drawn deterministically (-seed) from
// the dataset's /v1/info summary — spatial bounds, time span, floors,
// object count — so replayed queries hit real data.
//
// Progress prints to stderr once a second; the final human summary goes to
// stderr and the machine-readable JSON report to stdout (or -o file). With
// -slo-p99 and/or -max-errors the exit status is a gate: 0 pass, 1 usage or
// I/O error, 2 SLO violation — wire it straight into CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vita/internal/load"
	"vita/internal/obs"
	"vita/internal/serve"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vitaload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	server := flag.String("server", "", "vitaserve base URL to load (e.g. http://127.0.0.1:7617)")
	dataDir := flag.String("data", "", "dataset directory to open in-process instead of a server")
	mode := flag.String("mode", load.ModeOpen, "driving mode: open (fixed arrival rate) or closed (fixed concurrency)")
	rate := flag.Float64("rate", 100, "open-loop arrival rate in requests/second")
	concurrency := flag.Int("concurrency", 16, "workers: in-flight bound (open) or loop population (closed)")
	duration := flag.Duration("duration", 10*time.Second, "how long to issue requests")
	mixFlag := flag.String("mix", load.DefaultMix().String(), "operator mix as op=weight, comma-separated")
	seed := flag.Int64("seed", 1, "random seed; the same seed replays the identical query sequence")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout (-server only)")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	sloP99 := flag.Duration("slo-p99", 0, "fail (exit 2) when overall p99 latency exceeds this (0 disables)")
	maxErrors := flag.Int64("max-errors", -1, "fail (exit 2) when request errors exceed this (-1 disables)")
	quiet := flag.Bool("quiet", false, "suppress progress lines and the text summary")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *version {
		b := obs.Build()
		fmt.Printf("vitaload %s (%s) %s\n", b.Version, b.Commit, b.Go)
		return 0, nil
	}
	if (*server == "") == (*dataDir == "") {
		return 1, fmt.Errorf("exactly one of -server or -data is required")
	}
	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		return 1, err
	}

	var q serve.Querier
	var metricsURL string
	if *server != "" {
		// The transport must not be the throughput ceiling: allow one warm
		// connection per worker.
		q = serve.NewClient(*server, serve.ClientOptions{
			Timeout:             *timeout,
			MaxIdleConnsPerHost: *concurrency,
		})
		metricsURL = *server
	} else {
		ds, err := serve.Open(*dataDir, serve.Config{})
		if err != nil {
			return 1, err
		}
		defer ds.Close()
		q = ds
	}

	opts := load.Options{
		Mode:        *mode,
		Rate:        *rate,
		Concurrency: *concurrency,
		Duration:    *duration,
		Mix:         mix,
		Seed:        *seed,
		MetricsURL:  metricsURL,
	}
	if !*quiet {
		opts.Progress = func(p load.Progress) {
			fmt.Fprintf(os.Stderr, "t=%4.1fs sent=%d errors=%d dropped=%d p50=%.2fms p99=%.2fms\n",
				p.Elapsed.Seconds(), p.Sent, p.Errors, p.Dropped, p.P50*1e3, p.P99*1e3)
		}
	}

	// SIGINT/SIGTERM stops dispatch and drains in-flight requests, then the
	// partial report still prints — a cancelled run is not a lost run.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	rep, err := load.Run(ctx, q, opts)
	if err != nil {
		return 1, err
	}
	if !*quiet {
		if err := rep.WriteText(os.Stderr); err != nil {
			return 1, err
		}
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 1, err
	}
	js = append(js, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			return 1, err
		}
	} else if _, err := os.Stdout.Write(js); err != nil {
		return 1, err
	}

	if violations := rep.CheckSLO(*sloP99, *maxErrors); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "vitaload: SLO violation:", v)
		}
		return 2, nil
	}
	return 0, nil
}
