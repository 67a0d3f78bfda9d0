// Package vita is a versatile toolkit for generating indoor mobility data
// for real-world buildings — a Go reproduction of the system demonstrated in
// "Vita: A Versatile Toolkit for Generating Indoor Mobility Data for
// Real-World Buildings" (Li et al., PVLDB 9(13), 2016).
//
// The toolkit generates data in a three-layer pipeline:
//
//   - The Infrastructure Layer parses digital building information (DBI)
//     files in an IFC STEP subset into a multi-floor indoor environment and
//     deploys configurable positioning devices (Wi-Fi, Bluetooth, RFID) with
//     coverage or check-point deployment models.
//   - The Moving Object Layer generates moving objects (uniform or
//     crowd-outliers initial distribution, bounded lifespans, Poisson
//     arrivals, destination/random-way intentions, min-distance/min-time
//     routing, walk-stay behavior) and their ground-truth raw trajectories
//     at a configurable sampling frequency.
//   - The Positioning Layer synthesizes raw RSSI measurements with a
//     log-distance path loss model (wall-crossing obstacle noise + Gaussian
//     fluctuation) and derives positioning data by trilateration,
//     fingerprinting (kNN or naive Bayes) or proximity.
//
// Quick start:
//
//	cfg := vita.DefaultConfig()
//	ds, err := vita.Generate(cfg)
//	if err != nil { ... }
//	fmt.Println(ds.Trajectories.Len(), "ground-truth samples")
//	fmt.Println(ds.Estimates.Len(), "positioning estimates")
//
// See the examples directory for full scenarios.
package vita

import (
	"context"
	"io"

	"vita/internal/colstore"
	"vita/internal/core"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/load"
	"vita/internal/obs"
	"vita/internal/plan"
	"vita/internal/positioning"
	"vita/internal/query"
	"vita/internal/seglog"
	"vita/internal/serve"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// Config is the full generation configuration; see core.Config for field
// documentation. It loads from JSON via LoadConfig.
type Config = core.Config

// Sub-configurations of Config.
type (
	// BuildingConfig selects the DBI source and processing options.
	BuildingConfig = core.BuildingConfig
	// DeviceConfig deploys one batch of positioning devices.
	DeviceConfig = core.DeviceConfig
	// ObjectConfig configures the moving-object population.
	ObjectConfig = core.ObjectConfig
	// TrajectoryConfig configures ground-truth generation.
	TrajectoryConfig = core.TrajectoryConfig
	// RSSIConfig configures the path loss model and RSSI sampling.
	RSSIConfig = core.RSSIConfig
	// PositioningConfig selects and tunes the positioning method.
	PositioningConfig = core.PositioningConfig
)

// Dataset bundles everything a run produced: the environment, devices, raw
// trajectories (ground truth), raw RSSI, and positioning data.
type Dataset = core.Dataset

// Sample is one raw trajectory record (o_id, loc, t).
type Sample = trajectory.Sample

// Estimate is one deterministic positioning record (o_id, loc, t).
type Estimate = positioning.Estimate

// ProbEstimate is one probabilistic positioning record
// (o_id, {(loc_i, prob_i)}, t).
type ProbEstimate = positioning.ProbEstimate

// ProximityRecord states that an object was detected by a device over
// [ts, te].
type ProximityRecord = positioning.ProximityRecord

// ErrorStats summarizes positioning error against ground truth.
type ErrorStats = core.ErrorStats

// DefaultConfig returns a runnable configuration: the synthetic two-floor
// office, Wi-Fi deployment, 40 objects for ten simulated minutes,
// fingerprinting with kNN.
func DefaultConfig() Config { return core.DefaultConfig() }

// LoadConfig reads a JSON configuration.
func LoadConfig(r io.Reader) (Config, error) { return core.LoadConfig(r) }

// Generate runs the full three-layer pipeline for the configuration.
func Generate(cfg Config) (*Dataset, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// Sink receives a run's data products as they are produced; see
// core.Sink for the streaming contract. NewDirSink is the stock
// implementation.
type Sink = core.Sink

// DirSink streams a run's outputs into a directory as trajectory.<ext> and
// rssi.<ext> (CSV or VTB) plus the derived CSV tables.
type DirSink = core.DirSink

// NewDirSink creates dir if needed and opens streaming writers for the bulk
// outputs in the given format (StorageCSV or StorageVTB).
func NewDirSink(dir string, format StorageFormat) (*DirSink, error) {
	return core.NewDirSink(dir, format)
}

// GenerateTo runs the pipeline like Generate while streaming the produced
// data into sink record by record (trajectory and RSSI rows arrive in global
// time order, so arbitrarily large runs persist without double buffering).
// The caller owns sink and must Close it after GenerateTo returns.
func GenerateTo(cfg Config, sink Sink) (*Dataset, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunTo(sink)
}

// Live segmented datasets (internal/seglog): a dataset as an append-able,
// compacting log of VTB segment files under a crash-safe manifest, so
// generation can stream into it while a query daemon serves it.

// SegmentLog is an on-disk log of VTB segments with a manifest; see
// seglog.Log for the single-mutator/many-readers contract.
type SegmentLog = seglog.Log

// SegmentManifest is a point-in-time snapshot of a log's live segments.
type SegmentManifest = seglog.Manifest

// SegmentMeta describes one live segment: identity, row count, time span.
type SegmentMeta = seglog.SegmentMeta

// SegmentWriterOptions tunes segment roll-over (byte/row thresholds, block
// encoding).
type SegmentWriterOptions = seglog.WriterOptions

// SegmentCompactor merges a log's accumulated segments into one re-blocked
// in global order; see seglog.Compactor.
type SegmentCompactor = seglog.Compactor

// SegmentCompactorOptions tunes compaction thresholds.
type SegmentCompactorOptions = seglog.CompactorOptions

// OpenSegmentLog opens an existing segment log directory for reading or
// appending.
func OpenSegmentLog(dir string) (*SegmentLog, error) { return seglog.Open(dir) }

// NewSegmentCompactor returns a compactor over an opened log.
func NewSegmentCompactor(l *SegmentLog, opts SegmentCompactorOptions) *SegmentCompactor {
	return seglog.NewCompactor(l, opts)
}

// SegmentedDirSink streams a run's bulk outputs into live segment logs
// (dir/seglog/trajectory and dir/seglog/rssi) instead of flat files, so the
// dataset is queryable while generation is still running.
type SegmentedDirSink = core.SegmentedDirSink

// NewSegmentedDirSink creates (or resumes) the segment logs under dir and
// opens rolling writers for the bulk outputs.
func NewSegmentedDirSink(dir string, opts SegmentWriterOptions) (*SegmentedDirSink, error) {
	return core.NewSegmentedDirSink(dir, opts)
}

// EvaluateEstimates compares positioning estimates against the preserved
// ground-truth trajectories, returning error statistics and the number of
// floor mismatches.
func EvaluateEstimates(truth *storage.TrajectoryStore, ests []Estimate) (ErrorStats, int) {
	return core.EvaluateEstimates(truth, ests)
}

// PartitionHitRate returns the fraction of estimates whose partition matches
// the ground truth (symbolic accuracy).
func PartitionHitRate(truth *storage.TrajectoryStore, ests []Estimate) float64 {
	return core.PartitionHitRate(truth, ests)
}

// OfficeIFC returns the synthetic two-floor office building as IFC text —
// handy for writing a DBI file to disk and running with
// Building.Source = "file:...".
func OfficeIFC() string { return ifc.OfficeIFC() }

// MallIFC returns the synthetic two-floor mall as IFC text.
func MallIFC() string { return ifc.MallIFC() }

// ClinicIFC returns the synthetic clinic as IFC text.
func ClinicIFC() string { return ifc.ClinicIFC() }

// WriteTrajectoryCSV persists raw trajectory samples as CSV.
func WriteTrajectoryCSV(w io.Writer, samples []Sample) error {
	return storage.WriteTrajectoryCSV(w, samples)
}

// ReadTrajectoryCSV parses CSV written by WriteTrajectoryCSV — the input to
// the query engine when serving a previously generated dataset.
func ReadTrajectoryCSV(r io.Reader) ([]Sample, error) {
	return storage.ReadTrajectoryCSV(r)
}

// --- columnar binary trajectory store (internal/colstore) ---

// StorageFormat identifies an on-disk bulk encoding: the paper's CSV records
// (4-decimal quantization) or the lossless block-columnar VTB binary.
type StorageFormat = storage.Format

// Supported storage formats.
const (
	StorageCSV = storage.FormatCSV
	StorageVTB = storage.FormatVTB
)

// ScanPredicate restricts a trajectory-file scan (time window, floor, box,
// object); the zero value matches everything. On VTB files each constraint
// also prunes whole blocks via zone maps before any row is decoded.
type ScanPredicate = colstore.Predicate

// ScanStats reports how much of a VTB file a scan actually read.
type ScanStats = colstore.ScanStats

// DetectStorageFormat sniffs a file's format by magic bytes (extension is
// ignored), so CSV and VTB datasets interoperate transparently.
func DetectStorageFormat(path string) (StorageFormat, error) {
	return storage.DetectFormat(path)
}

// ReadTrajectoryFile loads a trajectory file in either storage format,
// detected by content, and reports which format it found.
func ReadTrajectoryFile(path string) ([]Sample, StorageFormat, error) {
	return storage.ReadTrajectoryFile(path)
}

// ScanTrajectoryFile streams the samples matching pred from a trajectory
// file in either storage format — OpenTrajectoryCursor drained row by row.
// VTB scans push the predicate into the block layer (zone-map pruning); CSV
// degrades to parse-and-filter.
func ScanTrajectoryFile(path string, pred ScanPredicate, emit func(Sample)) (ScanStats, StorageFormat, error) {
	return storage.ScanTrajectoryFile(path, pred, emit)
}

// TrajectoryBatch is one block's worth of decoded samples in column form —
// what a batch cursor yields. Iterate the column slices directly or view
// single rows with Row.
type TrajectoryBatch = colstore.TrajectoryBatch

// TrajectoryCursor pulls decoded column batches from a trajectory file —
// the one read path under every scan (ScanTrajectoryFile and
// ReadTrajectoryFile drain one), and the allocation-light way to walk a huge
// result.
type TrajectoryCursor = storage.TrajectoryCursor

// OpenTrajectoryCursor opens a batch cursor over a trajectory file in
// either storage format (detected by magic bytes). VTB files are
// memory-mapped where the platform allows, so block decode reads straight
// from the OS page cache; scans run in O(one block) memory:
//
//	cur, _, err := vita.OpenTrajectoryCursor(path, vita.ScanPredicate{})
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		b := cur.Batch()
//		... b.T, b.X, b.Y, or b.Row(i) ...
//	}
//	if err := cur.Err(); err != nil { ... }
func OpenTrajectoryCursor(path string, pred ScanPredicate) (TrajectoryCursor, StorageFormat, error) {
	return storage.OpenCursor(storage.Trajectory, path, pred, colstore.OpenOptions{})
}

// WriteTrajectoryVTB persists samples in the VTB columnar format —
// lossless, block-compressed, and zone-map indexed for pruned scans.
func WriteTrajectoryVTB(w io.Writer, samples []Sample) error {
	tw := colstore.NewTrajectoryWriter(w, colstore.Options{})
	for _, s := range samples {
		if err := tw.Write(s); err != nil {
			return err
		}
	}
	return tw.Close()
}

// WriteEstimateCSV persists positioning estimates as CSV.
func WriteEstimateCSV(w io.Writer, ests []Estimate) error {
	return storage.WriteEstimateCSV(w, ests)
}

// WriteProximityCSV persists proximity records as CSV.
func WriteProximityCSV(w io.Writer, recs []ProximityRecord) error {
	return storage.WriteProximityCSV(w, recs)
}

// --- spatio-temporal query engine (internal/query) ---

// TrajectoryIndex answers spatio-temporal queries (range × time window,
// kNN-at-instant, snapshot density, trajectory retrieval) over generated
// trajectory samples. Build with NewTrajectoryIndex.
type TrajectoryIndex = query.TrajectoryIndex

// QueryOptions tunes the query index layout (time-bucket width,
// interpolation gap).
type QueryOptions = query.Options

// Neighbor is one kNN result.
type Neighbor = query.Neighbor

// ContinuousEngine evaluates standing range queries over streamed samples.
type ContinuousEngine = query.ContinuousEngine

// QueryEvent is one continuous-query notification (enter/move/exit).
type QueryEvent = query.Event

// Subscription is one standing range query registered with a
// ContinuousEngine.
type Subscription = query.Subscription

// Continuous-query transition kinds.
const (
	QueryEnter = query.Enter
	QueryMove  = query.Move
	QueryExit  = query.Exit
)

// DefaultQueryOptions returns the default query-index layout.
func DefaultQueryOptions() QueryOptions { return query.DefaultOptions() }

// NewTrajectoryIndex builds a spatio-temporal index over samples — either a
// fresh Dataset's ds.Trajectories.All() or samples loaded back from CSV with
// ReadTrajectoryCSV.
func NewTrajectoryIndex(samples []Sample, opts QueryOptions) *TrajectoryIndex {
	return query.NewTrajectoryIndex(samples, opts)
}

// NewContinuousEngine returns an engine for standing range queries; feed it
// samples as they stream in.
func NewContinuousEngine() *ContinuousEngine { return query.NewContinuousEngine() }

// --- query-serving daemon (internal/serve, cmd/vitaserve) ---

// QueryDataset is an opened trajectory dataset ready to answer the query
// operators repeatedly without cold-start: the VTB footer stays resident (a
// CSV file is re-encoded as in-memory VTB blocks once, at open), hot decoded
// blocks live in a size-bounded LRU cache, and a scan decodes its cache
// misses a small window of blocks at a time, side by side. Safe for
// concurrent use.
type QueryDataset = serve.Dataset

// QueryServeConfig tunes an opened QueryDataset (interpolation gap,
// block-cache budget, mmap, manifest watch interval). The zero value selects
// the defaults. Decode parallelism is not tunable: it follows GOMAXPROCS.
type QueryServeConfig = serve.Config

// QueryServer exposes a QueryDataset's operators over HTTP with JSON
// responses — the daemon behind cmd/vitaserve.
type QueryServer = serve.Server

// QueryClient executes the query operators against a running vitaserve
// daemon, returning the same response types as local QueryDataset calls.
type QueryClient = serve.Client

// Per-operator request and response types shared by QueryDataset,
// QueryServer and QueryClient. Each response renders the CLI text form via
// WriteText.
type (
	RangeRequest    = serve.RangeRequest
	RangeResponse   = serve.RangeResponse
	KNNRequest      = serve.KNNRequest
	KNNResponse     = serve.KNNResponse
	DensityRequest  = serve.DensityRequest
	DensityResponse = serve.DensityResponse
	TrajRequest     = serve.TrajRequest
	TrajResponse    = serve.TrajResponse
	DwellRequest    = serve.DwellRequest
	DwellRoom       = serve.DwellRoom
	DwellResponse   = serve.DwellResponse
	InfoResponse    = serve.InfoResponse
)

// OpenQueryDataset opens the trajectory data in dir for serving: a live
// segment log (dir itself or dir/seglog/trajectory) takes priority, then
// trajectory.vtb, then trajectory.csv (detected by magic bytes). Segmented
// datasets refresh as their manifest advances; see QueryServeConfig's
// WatchInterval.
func OpenQueryDataset(dir string, cfg QueryServeConfig) (*QueryDataset, error) {
	return serve.Open(dir, cfg)
}

// NewQueryServer wraps an opened dataset in an HTTP query server; see
// cmd/vitaserve for the endpoint catalogue.
func NewQueryServer(ds *QueryDataset) *QueryServer { return serve.NewServer(ds) }

// --- observability (internal/obs) ---

// QueryServerOptions tunes a query server's observability: the slow-query
// log threshold, the metrics registry to expose on /metricsz, and the
// structured logger receiving request/error/slow-query lines. The zero
// value matches NewQueryServer (default registry, default logger, slow-query
// log off).
type QueryServerOptions = serve.ServerOptions

// NewQueryServerWith is NewQueryServer with explicit observability options.
func NewQueryServerWith(ds *QueryDataset, opts QueryServerOptions) *QueryServer {
	return serve.NewServerWith(ds, opts)
}

// QueryClientOptions tunes the HTTP transport behind a QueryClient (request
// timeout, per-host connection pool) — the knobs a high-concurrency load
// generator needs.
type QueryClientOptions = serve.ClientOptions

// NewQueryClient returns a QueryClient for the daemon at base with a
// dedicated transport tuned by opts.
func NewQueryClient(base string, opts QueryClientOptions) *QueryClient {
	return serve.NewClient(base, opts)
}

// PprofOptions tunes the block/mutex profiling rates a QueryServer applies
// when mounting the pprof endpoints.
type PprofOptions = serve.PprofOptions

// --- load-testing harness (internal/load, cmd/vitaload) ---

// LoadQuerier is anything the load harness can replay against: a local
// QueryDataset or a QueryClient speaking to a live daemon.
type LoadQuerier = load.Querier

// LoadMix is a weighted query mix for the load harness.
type LoadMix = load.Mix

// LoadOptions configures one load run: open/closed loop, rate or
// concurrency, duration, mix, seed, optional /metricsz scrape delta.
type LoadOptions = load.Options

// LoadReport is the machine-readable result of one load run: per-endpoint
// throughput, error counts, latency quantiles, and the server-side metrics
// delta.
type LoadReport = load.Report

// LoadProgress is one live snapshot of a running load test.
type LoadProgress = load.Progress

// Load-harness driving modes.
const (
	LoadModeOpen   = load.ModeOpen
	LoadModeClosed = load.ModeClosed
)

// DefaultLoadMix returns the stock interactive-monitoring query mix.
func DefaultLoadMix() LoadMix { return load.DefaultMix() }

// ParseLoadMix parses "range=40,knn=25,traj=20" into a LoadMix.
func ParseLoadMix(s string) (LoadMix, error) { return load.ParseMix(s) }

// RunLoad executes one load test against q (see cmd/vitaload for the CLI
// form) and blocks until it completes or ctx is cancelled.
func RunLoad(ctx context.Context, q LoadQuerier, opts LoadOptions) (*LoadReport, error) {
	return load.Run(ctx, q, opts)
}

// QueryTrace is one node of a per-operator execution trace — the operator
// name, batches/rows that flowed through it, inclusive wall time, scan
// pruning stats, and children. Responses carry one when the request asked
// for tracing (Trace field on the request, ?trace=1 over HTTP).
type QueryTrace = obs.Span

// MetricsRegistry is a set of named counters, gauges, and histograms
// rendered in Prometheus text exposition format via WritePrometheus.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry (useful for tests and for
// hosting several servers in one process without shared series).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide registry, where package-level
// instrumentation (segment-log writers and compactors) reports.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// VersionInfo identifies the running build: version and commit (stamped
// via `-ldflags "-X vita/internal/obs.Version=... -X
// vita/internal/obs.Commit=..."`, with the module VCS revision as
// fallback) plus the Go toolchain version.
type VersionInfo = obs.BuildInfo

// Version reports the running build's identity.
func Version() VersionInfo { return obs.Build() }

// --- vectorized operator algebra (internal/plan) ---
//
// The algebra composes relational operators over trajectory column batches:
// build a Plan fluently from NewPlanScan, Compile it, and drain the result.
// The planner pushes structured filter predicates into the scan (zone-map
// block pruning on VTB files) and fuses filter+project into one pass. The
// serve operators execute as plans over this layer; docs/ARCHITECTURE.md has
// the full tour, and examples/algebra shows a custom analytic end to end.

// QueryPlan is a logical operator tree; chain Filter/Project/TimeBucket/
// Derive/Aggregate/OrderBy/Limit/Join and Compile to execute.
type QueryPlan = plan.Plan

// CompiledPlan is an executable plan; drive it with Next/Batch or hand it to
// CollectPlanRows / CollectPlanSamples.
type CompiledPlan = plan.Compiled

// PlanPred is one filter predicate (see TimeBetween, OnFloor, InBox, ObjEq,
// Where).
type PlanPred = plan.Pred

// PlanCol names one trajectory column in projections, group-bys, sorts and
// join keys.
type PlanCol = plan.Col

// Trajectory columns, plus the plan-computed ColVal value column.
const (
	ColObjID     = plan.ColObjID
	ColBuilding  = plan.ColBuilding
	ColFloor     = plan.ColFloor
	ColPartition = plan.ColPartition
	ColX         = plan.ColX
	ColY         = plan.ColY
	ColT         = plan.ColT
	ColVal       = plan.ColVal
)

// PlanBatch is one vector of rows flowing between plan operators.
type PlanBatch = plan.Batch

// PlanRow is one materialized output row (sample + Val column).
type PlanRow = plan.Row

// PlanAgg is one aggregate in an Aggregate node (see PlanCount, PlanSum,
// PlanMin, PlanMax, PlanAvg).
type PlanAgg = plan.AggSpec

// PlanSortKey is one OrderBy key (see Asc, Desc).
type PlanSortKey = plan.SortKey

// PlanDeriveFunc computes the Val column for a batch in a Derive node.
type PlanDeriveFunc = plan.DeriveFunc

// PlanSource supplies a plan's scan leaf with a cursor honoring the pushed
// predicate (see NewPlanFileSource and plan.SliceSource).
type PlanSource = plan.Source

// NewPlanScan starts a plan at a source.
func NewPlanScan(src PlanSource) *QueryPlan { return plan.NewScan(src) }

// NewPlanFileSource scans a trajectory file (CSV or VTB, detected by magic
// bytes) as a plan leaf; on VTB the pushed predicate prunes blocks.
func NewPlanFileSource(path string) PlanSource { return plan.FileSource{Path: path} }

// NewPlanSliceSource serves in-memory samples as a plan leaf.
func NewPlanSliceSource(samples []Sample) PlanSource { return plan.SliceSource{Samples: samples} }

// Plan filter predicates. The structured kinds push down into scan pruning;
// Where always runs as a residual filter.
func TimeBetween(t0, t1 float64) PlanPred { return plan.TimeBetween(t0, t1) }
func OnFloor(floor int) PlanPred          { return plan.OnFloor(floor) }
func InBox(box geom.BBox) PlanPred        { return plan.InBox(box) }
func ObjEq(obj int) PlanPred              { return plan.ObjEq(obj) }
func Where(fn func(Sample) bool) PlanPred { return plan.Where(fn) }

// GroupBy is sugar for an Aggregate group-by column list.
func GroupBy(cols ...PlanCol) []PlanCol { return plan.By(cols...) }

// Plan aggregates. PlanCount counts group rows into dst; the others reduce
// src into dst.
func PlanCount(dst PlanCol) PlanAgg    { return plan.CountInto(dst) }
func PlanSum(src, dst PlanCol) PlanAgg { return plan.Sum(src, dst) }
func PlanMin(src, dst PlanCol) PlanAgg { return plan.Min(src, dst) }
func PlanMax(src, dst PlanCol) PlanAgg { return plan.Max(src, dst) }
func PlanAvg(src, dst PlanCol) PlanAgg { return plan.Avg(src, dst) }

// Sort-key constructors for OrderBy.
func Asc(c PlanCol) PlanSortKey  { return plan.Asc(c) }
func Desc(c PlanCol) PlanSortKey { return plan.Desc(c) }

// DwellGaps returns a Derive function attributing each inter-sample gap (up
// to maxGap seconds) to the partition the object stayed in — the core of the
// /v1/dwell operator. Input must be ordered by (object, time).
func DwellGaps(maxGap float64) PlanDeriveFunc { return plan.DwellGaps(maxGap) }

// CollectPlanRows drains a compiled plan into materialized rows and closes
// it.
func CollectPlanRows(c *CompiledPlan) ([]PlanRow, error) { return plan.CollectRows(c) }

// CollectPlanSamples drains a compiled plan into samples (dropping the Val
// column) and closes it.
func CollectPlanSamples(c *CompiledPlan) ([]Sample, error) { return plan.CollectSamples(c) }
