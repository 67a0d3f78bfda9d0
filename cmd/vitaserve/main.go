// Command vitaserve is the long-lived query-serving daemon over vitagen
// output. Where vitaquery pays cold-start on every invocation — reopen the
// file, reparse the footer, decode blocks — vitaserve opens the dataset
// directory once, keeps the VTB footer resident and hot decoded blocks in a
// size-bounded LRU cache, and answers the query operators over HTTP, each as
// a plan run straight off that cache (nothing is built or kept per request):
//
//	vitaserve -data out -addr 127.0.0.1:7617
//
//	GET /v1/range?floor=0&box=0,0,20,15&t0=0&t1=120
//	GET /v1/knn?floor=0&at=10,7.5&t=60&k=5
//	GET /v1/density?t=60
//	GET /v1/traj?obj=3&t0=0&t1=300
//	GET /v1/dwell?floor=0&t0=0&t1=600
//	GET /v1/info
//	GET /healthz
//	GET /metricsz
//	GET /debug/pprof/*   (only with -pprof)
//
// The VTB file is memory-mapped by default so cache-miss block decodes read
// straight from the OS page cache (-mmap=false falls back to plain reads);
// -pprof mounts the standard profiling endpoints for profiling the daemon in
// place and turns on block/mutex profiling at sane sampling defaults
// (-block-profile-rate, -mutex-profile-fraction tune or disable them).
//
// Live datasets: when -data holds a segment log (vitagen -segment-mb/-rows
// output, or the log directory itself), the daemon polls the manifest every
// -watch interval and folds in new segments without restarting — a dataset
// still being generated is queryable mid-run. -compact additionally runs the
// background compactor in-process, merging accumulated segments into one
// re-blocked in global time order; run it only when no other process mutates
// the log (vitagen finished or writing elsewhere).
//
// Responses are JSON and embed per-request scan stats (blocks pruned and
// decoded, cache hits and misses); /metricsz aggregates them over the
// daemon's lifetime (plus request counts and latency histograms, cache and
// seglog series, and build info) in Prometheus text format. `vitaquery
// -server URL` sends the same operators here and prints output
// byte-identical to local execution.
//
// Observability: logs are structured (-log-format text|json, -log-level);
// every request carries an X-Request-Id (honored if the client sent one)
// that the request log and error bodies echo. Any /v1 request with ?trace=1
// returns a per-operator execution trace in the response; -slow-query logs
// the same trace for requests over the threshold. -version prints the build
// identity (set via -ldflags "-X vita/internal/obs.Version=...") and exits.
//
// SIGINT or SIGTERM stops the daemon gracefully: the listener closes,
// in-flight requests drain (up to -drain), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"syscall"
	"time"

	"vita/internal/obs"
	"vita/internal/seglog"
	"vita/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitaserve:", err)
		os.Exit(1)
	}
}

func run() error {
	dataDir := flag.String("data", "out", "directory holding vitagen output")
	addr := flag.String("addr", "127.0.0.1:7617", "listen address")
	cacheMB := flag.Int("cache-mb", 64, "decoded-block cache budget in MiB (0 keeps nothing)")
	maxGap := flag.Float64("maxgap", 10, "max sample gap in seconds for instant queries")
	drain := flag.Duration("drain", 10*time.Second, "in-flight request drain timeout on shutdown")
	useMmap := flag.Bool("mmap", true, "memory-map the VTB file (false = plain file reads)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes internals; keep off on untrusted networks)")
	blockRate := flag.Int("block-profile-rate", serve.DefaultPprofOptions().BlockProfileRate, "with -pprof: sample one blocking event per this many ns blocked (1 = every event, <0 disables block profiling)")
	mutexFrac := flag.Int("mutex-profile-fraction", serve.DefaultPprofOptions().MutexProfileFraction, "with -pprof: sample 1/this of mutex contention events (1 = every event, <0 disables mutex profiling)")
	watch := flag.Duration("watch", time.Second, "manifest poll interval for live segmented datasets (0 disables refresh)")
	compactEvery := flag.Duration("compact", 0, "run in-process compaction of a segmented dataset at this interval (0 disables; obey the single-mutator rule: no other writer/compactor process)")
	slowQuery := flag.Duration("slow-query", 0, "log a per-operator trace for any request slower than this (0 disables)")
	version := flag.Bool("version", false, "print build version and exit")
	logOpts := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		b := obs.Build()
		fmt.Printf("vitaserve %s (%s) %s\n", b.Version, b.Commit, b.Go)
		return nil
	}
	if _, err := logOpts.Setup(os.Stderr); err != nil {
		return err
	}

	cfg := serve.Config{
		MaxGap:        *maxGap,
		CacheBytes:    int64(*cacheMB) << 20,
		DisableMmap:   !*useMmap,
		WatchInterval: *watch,
	}
	if *watch == 0 {
		cfg.WatchInterval = -1
	}
	if *cacheMB == 0 {
		cfg.CacheBytes = -1
	}
	ds, err := serve.Open(*dataDir, cfg)
	if err != nil {
		return err
	}
	// No deferred Close: the dataset is closed only after a clean drain.
	// Closing an mmap-backed dataset unmaps its file region, so doing it
	// while a timed-out drain leaves handlers mid-scan would fault them;
	// on the error path the process exits and the OS reclaims the mapping.

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	access := "pread"
	if ds.Mmapped() {
		access = "mmap"
	}
	b := obs.Build()
	slog.Info("serving",
		"path", ds.Path(), "format", string(ds.Format()), "access", access,
		"samples", ds.Len(), "blocks", ds.Blocks(),
		"addr", "http://"+l.Addr().String(),
		"version", b.Version, "commit", b.Commit)
	if n := ds.Segments(); n > 0 {
		slog.Info("live dataset",
			"segments", n, "generation", ds.Generation(), "watch", watch.String())
	}

	compactCtx, stopCompact := context.WithCancel(context.Background())
	defer stopCompact()
	if *compactEvery > 0 {
		// Keep the seglog handle under a name that doesn't shadow the stdlib
		// log package for the rest of this scope.
		slg := ds.SegLog()
		if slg == nil {
			return fmt.Errorf("-compact set but %s is not a segmented dataset", *dataDir)
		}
		// Run-loop errors are already logged by the compactor itself; OnError
		// stays nil so they are not reported twice.
		c := seglog.NewCompactor(slg, seglog.CompactorOptions{
			DisableMmap: !*useMmap,
		})
		go c.Run(compactCtx, *compactEvery)
		slog.Info("compacting", "every", compactEvery.String())
	}

	srv := serve.NewServerWith(ds, serve.ServerOptions{SlowQuery: *slowQuery})
	if *pprofOn {
		srv.EnablePprof(serve.PprofOptions{
			BlockProfileRate:     *blockRate,
			MutexProfileFraction: *mutexFrac,
		})
		slog.Info("pprof enabled",
			"addr", fmt.Sprintf("http://%s/debug/pprof/", l.Addr()),
			"block_profile_rate", *blockRate,
			"mutex_profile_fraction", *mutexFrac)
	}
	start := time.Now()
	if err := srv.RunUntilSignal(context.Background(), l, *drain, syscall.SIGINT, syscall.SIGTERM); err != nil {
		return err
	}
	// The drain completed: every handler has returned, so unmapping is safe.
	// The dataset's counters are read first, while its segments are live.
	cache := ds.CacheStats()
	totals := []any{"uptime_s", time.Since(start).Seconds(),
		"cache_hits", cache.Hits, "cache_misses", cache.Misses, "cache_evictions", cache.Evictions}
	if n := ds.Segments(); n > 0 {
		totals = append(totals, "segments", n, "generation", ds.Generation(),
			"compactions", ds.Compactions(), "refreshes", ds.Refreshes(),
			"block_invalidations", ds.BlockInvalidations())
	}
	if err := ds.Close(); err != nil {
		return err
	}
	slog.Info("drained and stopped", totals...)
	return nil
}
