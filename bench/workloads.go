package main

// The four workloads and the metric catalogue. Everything a later change
// could be tempted to tune — list lengths, the hot window, selectivities,
// client count — is a constant here, so two commits always do the same work.

// clients is the closed-loop client count of every serving workload. It is
// fixed (not GOMAXPROCS) so a run on a bigger box replays the same load; the
// sandbox has two cores, and the contract allows at most nproc clients.
const clients = 2

// tracedPrefix is how many requests of a list the single-client passes of a
// --trace 1 run replay.
const tracedPrefix = 300

// Open-loop diagnostics phase of http_hot (--trace 1 only): a frozen rate,
// latency measured from the due time.
const (
	openRate    = 80.0 // requests per second
	openSeconds = 4.0
)

// Operators, in the canonical order every table and digest uses.
const (
	opRange = iota
	opKNN
	opDensity
	opTraj
	opDwell
	numOps
)

var opNames = [numOps]string{"range", "knn", "density", "traj", "dwell"}

// workload describes one fixed workload. A serving workload replays a
// seeded request list against the scale dataset; gen_mall runs the
// generation pipeline itself.
type workload struct {
	name string
	why  string

	// Serving workloads.
	mix      [numOps]float64 // operator weights
	lo, hi   float64         // every instant and window falls in these span fractions
	requests int             // timed list length
	warm     int             // extra warm-up-only requests issued before the list
	http     bool            // through serve.Client -> loopback -> serve.Server
	minReps  int

	// tailQ is the quantile tail_ms reports: the highest with at least ten
	// samples beyond it in one rep (p99 of 1000 requests, p90 of 120).
	tailQ float64
}

// The point mix of ISSUE 11: range 40 / knn 25 / density 10 / traj 25.
var pointMix = [numOps]float64{opRange: 40, opKNN: 25, opDensity: 10, opTraj: 25}

var workloads = []workload{
	{
		name:    "gen_mall",
		why:     "full generation runs into a segment log: generator, colstore encode and seglog seal do all the work, serving none",
		minReps: 3,
	},
	{
		name:     "http_hot",
		why:      "cache-resident point mix over HTTP loopback: decode idle, HTTP/JSON shell and per-request index build do the work",
		mix:      pointMix,
		lo:       0.40,
		hi:       0.55,
		requests: 1000,
		http:     true,
		tailQ:    0.99,
		minReps:  2,
	},
	{
		name:     "scan_cold",
		why:      "same point mix over the whole span, in-process: working set exceeds the block cache, so prune, decode and cache churn dominate",
		mix:      pointMix,
		lo:       0,
		hi:       1,
		requests: 1000,
		tailQ:    0.99,
		minReps:  2,
	},
	{
		name:     "dwell_analytic",
		why:      "dwell-only analytic windows on cached blocks, in-process: plan operators (OrderBy, Derive, Aggregate) do the work",
		mix:      [numOps]float64{opDwell: 1},
		lo:       0.40,
		hi:       0.55,
		requests: 120,
		warm:     20,
		tailQ:    0.90,
		minReps:  2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one row of the catalogue; it mirrors an entry of
// BENCHMARK.json (a unit test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the reference median
}

// endToEnd is what a user of the system sees. Every workload reports every
// one: an "op" is an emitted row on gen_mall and an answered request on the
// serving workloads, and the latencies are whole runs on gen_mall and single
// requests elsewhere. The timing bounds are wide because the sandbox is
// noisy — a busy host slows whole runs of one commit by up to a third
// (README, "Noise") — and a bound must exceed the spread of what it guards.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"bytes_per_row", "B", "lower", 0.04},
}

// perLayer is the ledger a --trace 1 run fills. A layer a workload bypasses
// reads 0 there, which is itself the evidence that it was bypassed.
var perLayer = []metricDef{
	// HTTP shell (http_hot): the same request issued three ways.
	{name: "serve.exec_ms", unit: "ms", better: "lower"},
	{name: "serve.exec_self_ms", unit: "ms", better: "lower"},
	{name: "serve.handler_ms", unit: "ms", better: "lower"},
	{name: "serve.client_ms", unit: "ms", better: "lower"},
	{name: "serve.http_shell_ms", unit: "ms", better: "lower"},
	{name: "serve.transport_ms", unit: "ms", better: "lower"},
	{name: "serve.http_share", unit: "ratio", better: "lower"},
	{name: "serve.resp_bytes", unit: "B", better: "lower"},
	// Per-predicate index.
	{name: "query.index_build_ms", unit: "ms", better: "lower"},
	{name: "query.index_probe_ms", unit: "ms", better: "lower"},
	{name: "query.index_build_share", unit: "ratio", better: "lower"},
	{name: "query.index_rows_per_result", unit: "ratio", better: "lower"},
	// Plan operators, self time per request.
	{name: "plan.scan_ms", unit: "ms", better: "lower"},
	{name: "plan.filter_ms", unit: "ms", better: "lower"},
	{name: "plan.orderby_ms", unit: "ms", better: "lower"},
	{name: "plan.derive_ms", unit: "ms", better: "lower"},
	{name: "plan.aggregate_ms", unit: "ms", better: "lower"},
	{name: "plan.other_ms", unit: "ms", better: "lower"},
	{name: "plan.exec_share", unit: "ratio", better: "lower"},
	{name: "plan.rows_scanned_per_result", unit: "ratio", better: "lower"},
	// Column store and segment log, read and write side.
	{name: "colstore.blocks_read", unit: "count", better: "lower"},
	{name: "colstore.blocks_decoded", unit: "count", better: "lower"},
	{name: "colstore.blocks_pruned", unit: "count", better: "higher"},
	{name: "colstore.prune_ratio", unit: "ratio", better: "higher"},
	{name: "colstore.rows_scanned", unit: "count", better: "lower"},
	{name: "colstore.decode_us_per_block", unit: "us", better: "lower"},
	{name: "colstore.write_s", unit: "s", better: "lower"},
	{name: "colstore.bytes_written", unit: "B", better: "lower"},
	{name: "seglog.segments_sealed", unit: "count", better: "lower"},
	// Block cache and open.
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.cache_misses", unit: "count", better: "lower"},
	{name: "serve.cache_evictions", unit: "count", better: "lower"},
	{name: "serve.cache_mb", unit: "MB", better: "lower"},
	{name: "serve.open_ms", unit: "ms", better: "lower"},
	{name: "serve.segments", unit: "count", better: "lower"},
	// Generation stages (gen_mall), delimited by the sink-call sequence.
	{name: "core.pre_s", unit: "s", better: "lower"},
	{name: "trajectory.gen_s", unit: "s", better: "lower"},
	{name: "trajectory.rows", unit: "count", better: "higher"},
	{name: "trajectory.speedup_p", unit: "ratio", better: "higher"},
	{name: "rssi.gen_s", unit: "s", better: "lower"},
	{name: "rssi.rows", unit: "count", better: "higher"},
	{name: "positioning.run_s", unit: "s", better: "lower"},
	{name: "positioning.estimates", unit: "count", better: "higher"},
	{name: "core.retained_mb", unit: "MB", better: "lower"},
	// Per-operator latency from one untraced closed-loop rep.
	{name: "op.range.p50_ms", unit: "ms", better: "lower"},
	{name: "op.range.p90_ms", unit: "ms", better: "lower"},
	{name: "op.knn.p50_ms", unit: "ms", better: "lower"},
	{name: "op.knn.p90_ms", unit: "ms", better: "lower"},
	{name: "op.density.p50_ms", unit: "ms", better: "lower"},
	{name: "op.density.p90_ms", unit: "ms", better: "lower"},
	{name: "op.traj.p50_ms", unit: "ms", better: "lower"},
	{name: "op.traj.p90_ms", unit: "ms", better: "lower"},
	{name: "op.dwell.p50_ms", unit: "ms", better: "lower"},
	{name: "op.dwell.p90_ms", unit: "ms", better: "lower"},
	// Runtime, tracing cost, open-loop diagnostics.
	{name: "go.alloc_kb_per_op", unit: "kB", better: "lower"},
	{name: "go.allocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "load.open_p50_ms", unit: "ms", better: "lower"},
	{name: "load.open_p99_ms", unit: "ms", better: "lower"},
	{name: "load.late_p99_ms", unit: "ms", better: "lower"},
	{name: "load.backlog_end", unit: "count", better: "lower"},
}
