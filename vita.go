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
//	fmt.Println(ds.TrajectoryStats.Samples, "ground-truth samples")
//	fmt.Println(len(ds.Estimates), "positioning estimates")
//	for i, series := range ds.Trajectories { // slot i is object i+1
//		fmt.Println("object", i+1, len(series), "samples")
//	}
//	stats, _ := vita.EvaluateEstimates(ds.Trajectories, ds.Estimates)
//
// This package holds what the programs in the examples directory call, and
// the types their signatures need; the command-line tools use the internal
// packages directly.
package vita

import (
	"io"

	"vita/internal/core"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/plan"
	"vita/internal/positioning"
	"vita/internal/serve"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// Config is the full generation configuration; see core.Config for field
// documentation.
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

// ProximityRecord states that an object was detected by a device over
// [ts, te].
type ProximityRecord = positioning.ProximityRecord

// ErrorStats summarizes positioning error against ground truth.
type ErrorStats = core.ErrorStats

// DefaultConfig returns a runnable configuration: the synthetic two-floor
// office, Wi-Fi deployment, 40 objects for ten simulated minutes,
// fingerprinting with kNN.
func DefaultConfig() Config { return core.DefaultConfig() }

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

// StorageFormat identifies an on-disk bulk encoding: the paper's CSV records
// (4-decimal quantization) or the lossless block-columnar VTB binary.
type StorageFormat = storage.Format

// StorageVTB selects the VTB columnar format: lossless, block-compressed,
// and zone-map indexed for pruned scans.
const StorageVTB = storage.FormatVTB

// NewDirSink creates dir if needed and opens streaming writers for the bulk
// outputs in the given format.
func NewDirSink(dir string, format StorageFormat) (*DirSink, error) {
	return core.NewDirSink(dir, format)
}

// GenerateTo runs the pipeline like Generate while streaming the produced
// data into sink (trajectory rows in global time order, RSSI rows grouped by
// object), so arbitrarily large runs persist without double buffering. The
// returned Dataset does not keep the RSSI rows the sink took (Dataset.RSSI is
// nil; Dataset.RSSICount counts them). The caller owns sink and must Close it
// after GenerateTo returns.
func GenerateTo(cfg Config, sink Sink) (*Dataset, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunTo(sink)
}

// EvaluateEstimates compares positioning estimates against the preserved
// ground truth, a run's series slots (Dataset.Trajectories), returning error
// statistics and the number of floor mismatches. Estimates of an object
// without a slot are skipped.
func EvaluateEstimates(truth [][]Sample, ests []Estimate) (ErrorStats, int) {
	return core.EvaluateEstimates(truth, ests)
}

// PartitionHitRate returns the fraction of estimates that place their object
// in its true room (symbolic accuracy), comparing rooms through the
// building's partitions (pass Dataset.Building and Dataset.Trajectories).
func PartitionHitRate(b *model.Building, truth [][]Sample, ests []Estimate) float64 {
	return core.PartitionHitRate(b, truth, ests)
}

// WriteProximityCSV persists proximity records as CSV.
func WriteProximityCSV(w io.Writer, recs []ProximityRecord) error {
	return storage.WriteProximityCSV(w, recs)
}

// --- the query engine over a stored dataset (internal/serve) ---

// QueryDataset is an opened trajectory dataset answering the range, knn,
// density, traj, dwell, info and watch operators — the engine behind
// vitaquery and vitaserve. Each operator runs as a plan over the dataset's
// blocks, and each response renders vitaquery's text via WriteText. Safe for
// concurrent use.
type QueryDataset = serve.Dataset

// QueryServeConfig tunes an opened QueryDataset (interpolation gap,
// block-cache budget, manifest watch interval). The zero value selects
// the defaults.
type QueryServeConfig = serve.Config

// DefaultMaxGap is the seconds between consecutive samples across which a
// QueryDataset still interpolates a position and credits dwell time, unless
// QueryServeConfig.MaxGap says otherwise.
const DefaultMaxGap = serve.DefaultMaxGap

// Per-operator requests a QueryDataset answers.
type (
	RangeRequest   = serve.RangeRequest
	KNNRequest     = serve.KNNRequest
	DensityRequest = serve.DensityRequest
	TrajRequest    = serve.TrajRequest
	DwellRequest   = serve.DwellRequest
	WatchRequest   = serve.WatchRequest
)

// OpenQueryDataset opens the trajectory data in dir: a live segment log (dir
// itself or dir/seglog/trajectory) takes priority, then trajectory.vtb, then
// trajectory.csv (detected by magic bytes).
func OpenQueryDataset(dir string, cfg QueryServeConfig) (*QueryDataset, error) {
	return serve.Open(dir, cfg)
}

// --- vectorized operator algebra (internal/plan) ---
//
// The algebra composes relational operators over trajectory column batches:
// build a Plan fluently from NewPlanScan, Compile it, and drain the result.
// The planner pushes structured filter predicates into the scan (zone-map
// block pruning on VTB files) and fuses filter+project into one pass. The
// QueryDataset operators execute as plans over this layer;
// docs/ARCHITECTURE.md has the full tour, and examples/algebra shows a custom
// analytic end to end.

// QueryPlan is a logical operator tree; chain Filter/Project/TimeBucket/
// Derive/Aggregate/OrderBy/Limit/SnapshotAt and Compile to execute.
type QueryPlan = plan.Plan

// CompiledPlan is an executable plan; drive it with Next/Batch or hand it to
// CollectPlanRows / CollectPlanSamples.
type CompiledPlan = plan.Compiled

// PlanPred is one filter predicate (see TimeBetween, OnFloor, InBox).
type PlanPred = plan.Pred

// PlanCol names one trajectory column in projections, group-bys and sorts.
type PlanCol = plan.Col

// Trajectory columns used by the algebra example, plus the plan-computed
// ColVal value column.
const (
	ColObjID     = plan.ColObjID
	ColPartition = plan.ColPartition
	ColT         = plan.ColT
	ColVal       = plan.ColVal
)

// PlanRow is one materialized output row (sample + Val column).
type PlanRow = plan.Row

// PlanAgg is one aggregate in an Aggregate node (see PlanCount, PlanSum).
type PlanAgg = plan.AggSpec

// PlanSortKey is one OrderBy key (see Asc, Desc).
type PlanSortKey = plan.SortKey

// PlanDeriveFunc computes the Val column for a batch in a Derive node.
type PlanDeriveFunc = plan.DeriveFunc

// PlanSource supplies a plan's scan leaf with a cursor honoring the pushed
// predicate (see NewPlanFileSource).
type PlanSource = plan.Source

// NewPlanScan starts a plan at a source.
func NewPlanScan(src PlanSource) *QueryPlan { return plan.NewScan(src) }

// NewPlanFileSource scans a trajectory file (CSV or VTB, detected by magic
// bytes) as a plan leaf; on VTB the pushed predicate prunes blocks.
func NewPlanFileSource(path string) PlanSource { return plan.FileSource{Path: path} }

// Plan filter predicates; each pushes down into scan pruning.
func TimeBetween(t0, t1 float64) PlanPred { return plan.TimeBetween(t0, t1) }
func OnFloor(floor int) PlanPred          { return plan.OnFloor(floor) }
func InBox(box geom.BBox) PlanPred        { return plan.InBox(box) }

// GroupBy is sugar for an Aggregate group-by column list.
func GroupBy(cols ...PlanCol) []PlanCol { return plan.By(cols...) }

// Plan aggregates. PlanCount counts group rows into dst; PlanSum reduces src
// into dst.
func PlanCount(dst PlanCol) PlanAgg    { return plan.CountInto(dst) }
func PlanSum(src, dst PlanCol) PlanAgg { return plan.Sum(src, dst) }

// Sort-key constructors for OrderBy.
func Asc(c PlanCol) PlanSortKey  { return plan.Asc(c) }
func Desc(c PlanCol) PlanSortKey { return plan.Desc(c) }

// DwellGaps returns a Derive function attributing each inter-sample gap (up
// to maxGap seconds) to the partition the object stayed in — the core of the
// dwell operator. Input must be ordered by (object, time).
func DwellGaps(maxGap float64) PlanDeriveFunc { return plan.DwellGaps(maxGap) }

// CollectPlanRows drains a compiled plan into materialized rows and closes
// it.
func CollectPlanRows(c *CompiledPlan) ([]PlanRow, error) { return plan.CollectRows(c) }

// CollectPlanSamples drains a compiled plan into samples (dropping the Val
// column) and closes it.
func CollectPlanSamples(c *CompiledPlan) ([]Sample, error) { return plan.CollectSamples(c) }
