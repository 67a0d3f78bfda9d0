// Package core wires Vita's three-layer pipeline together (paper §2,
// Figures 1-2): the Interface (DBI Processor + Configuration Loader), the
// Producer with its five controllers (Indoor Environment, Positioning
// Device, Moving Object, RSSI Measurement, Positioning Method), and the
// Storage repositories the layers exchange data with.
package core

import (
	"encoding/json"
	"fmt"
	"io"

	"vita/internal/device"
	"vita/internal/object"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/topo"
)

// Config is the user-editable generation configuration consumed by the
// Configuration Loader. Zero values select documented defaults so a minimal
// config runs end to end.
type Config struct {
	// Seed drives every random choice of the run; identical configs with
	// identical seeds produce identical data.
	Seed uint64 `json:"seed"`
	// Parallelism is the number of workers that claim objects to simulate
	// and to replay RSSI for. 0 (the default) selects GOMAXPROCS; 1
	// simulates on the calling goroutine, then replays RSSI on one goroutine
	// while the calling goroutine emits each object's batch in order (a
	// sink's merge still runs on its own).
	// The produced data is byte-identical for any value: every object draws
	// from an RNG stream derived deterministically from the seed and the
	// object ID.
	Parallelism int `json:"parallelism,omitempty"`

	Building    BuildingConfig    `json:"building"`
	Devices     []DeviceConfig    `json:"devices"`
	Objects     ObjectConfig      `json:"objects"`
	Trajectory  TrajectoryConfig  `json:"trajectory"`
	RSSI        RSSIConfig        `json:"rssi"`
	Positioning PositioningConfig `json:"positioning"`
}

// BuildingConfig selects and processes the host indoor environment.
type BuildingConfig struct {
	// Source is "synthetic:office", "synthetic:mall", "synthetic:clinic" or
	// "file:<path>" pointing at an IFC DBI file.
	Source string `json:"source"`
	// Decompose toggles irregular-partition decomposition (default on).
	Decompose *bool `json:"decompose,omitempty"`
	// MaxPartitionArea overrides the decomposition size threshold (m²).
	MaxPartitionArea float64 `json:"max_partition_area,omitempty"`
	// OneWayDoors restricts doors to one passing direction — the door
	// directionality customization of the Indoor Environment Controller
	// (paper §2).
	OneWayDoors []OneWayDoorConfig `json:"one_way_doors,omitempty"`
	// Obstacles deploys extra axis-aligned obstacles that block both
	// movement line-of-sight and radio line-of-sight (paper §2: "deploy
	// obstacles to further customize the host indoor environment").
	Obstacles []ObstacleConfig `json:"obstacles,omitempty"`
}

// OneWayDoorConfig restricts the named door so that movement is only
// possible from partition From to partition To (IDs as in the DBI file;
// decomposed children match their parent).
type OneWayDoorConfig struct {
	Door string `json:"door"`
	From string `json:"from"`
	To   string `json:"to"`
}

// ObstacleConfig is one axis-aligned rectangular obstacle.
type ObstacleConfig struct {
	Floor int     `json:"floor"`
	MinX  float64 `json:"min_x"`
	MinY  float64 `json:"min_y"`
	MaxX  float64 `json:"max_x"`
	MaxY  float64 `json:"max_y"`
}

// DeviceConfig deploys one batch of positioning devices on one floor.
type DeviceConfig struct {
	Floor int `json:"floor"`
	// Model is "coverage" or "check-point".
	Model string `json:"model"`
	// Type is "wifi", "bluetooth" or "rfid".
	Type string `json:"type"`
	// Count is the device budget (coverage requires it; check-point treats
	// it as a cap, 0 = unlimited).
	Count int `json:"count"`
	// DetectionRange/SampleInterval override the per-type defaults when > 0.
	DetectionRange float64 `json:"detection_range,omitempty"`
	SampleInterval float64 `json:"sample_interval,omitempty"`
}

// ObjectConfig configures the Moving Object Layer.
type ObjectConfig struct {
	Count       int     `json:"count"`
	MinLifespan float64 `json:"min_lifespan"`
	MaxLifespan float64 `json:"max_lifespan"`
	MaxSpeed    float64 `json:"max_speed"`
	// Distribution is "uniform" or "crowd-outliers".
	Distribution  string   `json:"distribution"`
	CrowdFraction float64  `json:"crowd_fraction,omitempty"`
	HotPartitions []string `json:"hot_partitions,omitempty"`
	// ArrivalRate is the Poisson rate (objects/s) of new objects.
	ArrivalRate        float64  `json:"arrival_rate,omitempty"`
	EmergingPartitions []string `json:"emerging_partitions,omitempty"`
	// Intention is "destination" or "random-way"; Routing is "min-distance"
	// or "min-time"; Behavior is "walk-stay" or "constant-walk".
	Intention string  `json:"intention,omitempty"`
	Routing   string  `json:"routing,omitempty"`
	Behavior  string  `json:"behavior,omitempty"`
	MinStay   float64 `json:"min_stay,omitempty"`
	MaxStay   float64 `json:"max_stay,omitempty"`
}

// TrajectoryConfig configures raw trajectory generation.
type TrajectoryConfig struct {
	Duration float64 `json:"duration"`
	Tick     float64 `json:"tick,omitempty"`
	// SampleInterval is the ground-truth sampling period (s).
	SampleInterval float64 `json:"sample_interval,omitempty"`
}

// RSSIConfig configures raw RSSI generation.
type RSSIConfig struct {
	Exponent         float64 `json:"exponent,omitempty"`
	CalibrationA     float64 `json:"calibration_a,omitempty"`
	WallLoss         float64 `json:"wall_loss,omitempty"`
	FluctuationSigma float64 `json:"fluctuation_sigma,omitempty"`
	// SampleInterval overrides every device's sampling period when > 0.
	SampleInterval float64 `json:"sample_interval,omitempty"`
	// DisableLineOfSight switches the obstacle term to a constant penalty.
	DisableLineOfSight bool    `json:"disable_line_of_sight,omitempty"`
	ConstantPenalty    float64 `json:"constant_penalty,omitempty"`
}

// PositioningConfig selects and configures the positioning method.
type PositioningConfig struct {
	// Method is "trilateration", "fingerprint" or "proximity"; empty skips
	// the positioning step.
	Method string `json:"method"`
	// SampleInterval is the positioning sampling period (s) — distinct from
	// the trajectory and RSSI frequencies (paper §2).
	SampleInterval float64 `json:"sample_interval,omitempty"`
	// Algorithm is "knn" or "bayes" (fingerprint only).
	Algorithm string `json:"algorithm,omitempty"`
	K         int    `json:"k,omitempty"`
	// Spacing is the radio-map reference grid spacing (fingerprint only).
	Spacing float64 `json:"spacing,omitempty"`
}

// DefaultConfig returns a runnable configuration: the synthetic office,
// Wi-Fi coverage deployment, 40 uniformly distributed objects, ten simulated
// minutes, fingerprinting with kNN.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Building: BuildingConfig{Source: "synthetic:office"},
		Devices: []DeviceConfig{
			{Floor: 0, Model: "coverage", Type: "wifi", Count: 8},
			{Floor: 1, Model: "check-point", Type: "wifi", Count: 8},
		},
		Objects: ObjectConfig{
			Count:        40,
			MinLifespan:  300,
			MaxLifespan:  600,
			MaxSpeed:     1.6,
			Distribution: "uniform",
		},
		Trajectory:  TrajectoryConfig{Duration: 600, SampleInterval: 1},
		RSSI:        RSSIConfig{},
		Positioning: PositioningConfig{Method: "fingerprint", Algorithm: "knn"},
	}
}

// LoadConfig reads a JSON configuration (the Configuration Loader of the
// Interface component).
func LoadConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("core: decode config: %w", err)
	}
	return cfg, nil
}

// --- translation helpers to the layer-specific configs ---

func (c ObjectConfig) pattern() (object.Pattern, error) {
	p := object.DefaultPattern()
	switch c.Intention {
	case "", "destination":
		p.Intention = object.DestinationIntent
	case "random-way":
		p.Intention = object.RandomWayIntent
	default:
		return p, fmt.Errorf("core: unknown intention %q", c.Intention)
	}
	switch c.Routing {
	case "", "min-distance":
		p.Routing = topo.MinDistance
	case "min-time":
		p.Routing = topo.MinTime
	default:
		return p, fmt.Errorf("core: unknown routing %q", c.Routing)
	}
	switch c.Behavior {
	case "", "walk-stay":
		p.Behavior = object.WalkStay
	case "constant-walk":
		p.Behavior = object.ConstantWalk
	default:
		return p, fmt.Errorf("core: unknown behavior %q", c.Behavior)
	}
	if c.MinStay > 0 {
		p.MinStay = c.MinStay
	}
	if c.MaxStay > 0 {
		p.MaxStay = c.MaxStay
	}
	return p, nil
}

func (c ObjectConfig) distribution() (object.Distribution, error) {
	switch c.Distribution {
	case "", "uniform":
		return object.Uniform{}, nil
	case "crowd-outliers":
		return object.CrowdOutliers{
			CrowdFraction: c.CrowdFraction,
			HotPartitions: c.HotPartitions,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown distribution %q", c.Distribution)
	}
}

func (c RSSIConfig) model() rssi.PathLossModel {
	m := rssi.DefaultPathLossModel()
	if c.Exponent > 0 {
		m.Exponent = c.Exponent
	}
	if c.CalibrationA != 0 {
		m.CalibrationA = c.CalibrationA
	}
	if c.WallLoss > 0 {
		m.WallLoss = c.WallLoss
	}
	if c.FluctuationSigma > 0 {
		m.FluctuationSigma = c.FluctuationSigma
	}
	if c.DisableLineOfSight {
		m.UseLineOfSight = false
		m.ConstantObstaclePenalty = c.ConstantPenalty
	}
	return m
}

func (c DeviceConfig) spec() (device.DeploySpec, error) {
	typ, err := device.ParseType(c.Type)
	if err != nil {
		return device.DeploySpec{}, err
	}
	mdl, err := device.ParseDeploymentModel(c.Model)
	if err != nil {
		return device.DeploySpec{}, err
	}
	spec := device.DeploySpec{Model: mdl, Type: typ, Count: c.Count}
	if c.DetectionRange > 0 || c.SampleInterval > 0 {
		p := device.DefaultProperties(typ)
		if c.DetectionRange > 0 {
			p.DetectionRange = c.DetectionRange
		}
		if c.SampleInterval > 0 {
			p.SampleInterval = c.SampleInterval
		}
		spec.Props = &p
	}
	return spec, nil
}

func (c PositioningConfig) algorithm() (positioning.FingerprintAlgorithm, error) {
	switch c.Algorithm {
	case "", "knn":
		return positioning.KNN, nil
	case "bayes", "naive-bayes":
		return positioning.NaiveBayes, nil
	default:
		return 0, fmt.Errorf("core: unknown fingerprint algorithm %q", c.Algorithm)
	}
}
