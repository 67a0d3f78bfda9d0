package core

import (
	"slices"
	"strings"
	"testing"

	"vita/internal/rng"
	"vita/internal/rssi"
)

func runPipeline(t testing.TB, mutate func(*Config)) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trajectory.Duration = 120
	cfg.Objects.Count = 10
	cfg.Objects.MinLifespan = 60
	cfg.Objects.MaxLifespan = 120
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	ds, err := p.Run()
	if err != nil {
		t.Fatalf("run pipeline: %v", err)
	}
	return ds
}

func TestPipelineEndToEndFingerprint(t *testing.T) {
	ds := runPipeline(t, nil)
	if ds.TrajectoryStats.Samples == 0 {
		t.Fatal("no trajectory samples generated")
	}
	if len(ds.RSSI) == 0 {
		t.Fatal("no RSSI measurements generated")
	}
	if len(ds.Estimates) == 0 {
		t.Fatal("no positioning estimates generated")
	}
	if ds.RadioMap == nil || len(ds.RadioMap.Refs) == 0 {
		t.Fatal("no radio map built")
	}
	stats, _ := EvaluateEstimates(ds.Trajectories, ds.Estimates)
	if stats.N == 0 {
		t.Fatal("no estimates evaluated against ground truth")
	}
	if stats.Mean <= 0 || stats.Mean > 25 {
		t.Errorf("implausible fingerprinting mean error %.2fm", stats.Mean)
	}
}

func TestPipelineTrilateration(t *testing.T) {
	ds := runPipeline(t, func(c *Config) {
		c.Positioning = PositioningConfig{Method: "trilateration"}
		// Denser deployment so windows see >= 3 devices.
		c.Devices = []DeviceConfig{
			{Floor: 0, Model: "coverage", Type: "wifi", Count: 12},
			{Floor: 1, Model: "coverage", Type: "wifi", Count: 12},
		}
	})
	if len(ds.Estimates) == 0 {
		t.Fatal("no trilateration estimates")
	}
	stats, _ := EvaluateEstimates(ds.Trajectories, ds.Estimates)
	if stats.N == 0 || stats.Mean > 30 {
		t.Errorf("implausible trilateration error stats: %s", stats)
	}
}

func TestPipelineProximityRFID(t *testing.T) {
	ds := runPipeline(t, func(c *Config) {
		c.Positioning = PositioningConfig{Method: "proximity"}
		c.Devices = []DeviceConfig{
			{Floor: 0, Model: "check-point", Type: "rfid"},
			{Floor: 1, Model: "check-point", Type: "rfid"},
		}
	})
	if len(ds.Proximity) == 0 {
		t.Fatal("no proximity records")
	}
	for _, r := range ds.Proximity {
		if r.TE < r.TS {
			t.Fatalf("inverted detection period: %+v", r)
		}
	}
}

// TestProximityFollowsRSSIInterval: when rssi.sample_interval overrides
// every device's own, a detection period spans consecutive measurements at
// that interval. Periods of one (object, device) pair are then more than
// 1.5 intervals apart, and few of them are a single instant.
func TestProximityFollowsRSSIInterval(t *testing.T) {
	const interval = 5
	ds := runPipeline(t, func(c *Config) {
		c.RSSI.SampleInterval = interval
		c.Positioning = PositioningConfig{Method: "proximity"}
	})
	if len(ds.Proximity) == 0 {
		t.Fatal("no proximity records")
	}
	instants := 0
	for i, r := range ds.Proximity {
		if r.TS == r.TE {
			instants++
		}
		if i == 0 {
			continue
		}
		if p := ds.Proximity[i-1]; p.ObjID == r.ObjID && p.DeviceID == r.DeviceID && r.TS-p.TE <= 1.5*interval {
			t.Fatalf("periods %+v and %+v are %.1f s apart: one %d s sampling gap must not end a period", p, r, r.TS-p.TE, interval)
		}
	}
	if instants*10 > len(ds.Proximity) {
		t.Errorf("%d of %d proximity records are a single instant, want at most 10%%", instants, len(ds.Proximity))
	}
}

func TestPipelineProbabilisticFingerprint(t *testing.T) {
	ds := runPipeline(t, func(c *Config) {
		c.Positioning = PositioningConfig{Method: "fingerprint", Algorithm: "bayes", K: 5}
	})
	if len(ds.ProbEstimates) == 0 {
		t.Fatal("no probabilistic estimates")
	}
	for _, pe := range ds.ProbEstimates {
		var sum float64
		for _, c := range pe.Candidates {
			if c.Prob < 0 || c.Prob > 1.0001 {
				t.Fatalf("probability out of range: %v", c.Prob)
			}
			sum += c.Prob
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("probabilities sum to %.4f, want 1", sum)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	a := runPipeline(t, nil)
	b := runPipeline(t, nil)
	if a.TrajectoryStats.Samples != b.TrajectoryStats.Samples {
		t.Errorf("trajectory counts differ across identical runs: %d vs %d",
			a.TrajectoryStats.Samples, b.TrajectoryStats.Samples)
	}
	if len(a.RSSI) != len(b.RSSI) {
		t.Errorf("RSSI counts differ: %d vs %d", len(a.RSSI), len(b.RSSI))
	}
	as, bs := slices.Concat(a.Trajectories...), slices.Concat(b.Trajectories...)
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, as[i], bs[i])
		}
	}
}

// TestOneMoreDeviceChangesNothingElse: appending a device batch (one device
// on floor 1, a Bluetooth beacon so its ID is new) to the default office
// leaves every trajectory and every RSSI row of the existing devices exactly
// as it was, in the same order.
func TestOneMoreDeviceChangesNothingElse(t *testing.T) {
	noPositioning := func(c *Config) { c.Positioning = PositioningConfig{} }
	base := runPipeline(t, noPositioning)
	variant := runPipeline(t, func(c *Config) {
		noPositioning(c)
		c.Devices = append(c.Devices, DeviceConfig{Floor: 1, Model: "check-point", Type: "bluetooth", Count: 1})
	})
	if len(variant.Devices) != len(base.Devices)+1 {
		t.Fatalf("%d devices with the extra batch, %d without", len(variant.Devices), len(base.Devices))
	}
	known := map[string]bool{}
	for _, d := range base.Devices {
		known[d.ID] = true
	}
	var kept []rssi.Measurement
	for _, m := range variant.RSSI {
		if known[m.DeviceID] {
			kept = append(kept, m)
		}
	}
	if len(kept) == len(variant.RSSI) {
		t.Fatal("the extra device measured nothing")
	}
	if !slices.Equal(kept, base.RSSI) {
		t.Errorf("the existing devices' RSSI rows changed: %d rows, %d before", len(kept), len(base.RSSI))
	}
	if !slices.EqualFunc(variant.Trajectories, base.Trajectories, slices.Equal) {
		t.Error("the trajectories changed")
	}
}

// TestLongerRunExtendsTrajectories: on the default office without arrivals,
// with every object outliving the shorter run (lifespans 900–1200 s), the
// run at 2D extends the run at D: every object's samples at t ≤ D are
// exactly the shorter run's, in order.
//
// The RSSI half of that property does not hold, and is only logged:
// generateForObject draws one object's noise device after device from one
// stream, so a longer trajectory gives the first device more instants and
// shifts every later device's draws (5 575 of 92 775 cells at t ≤ 600 equal
// here; all of them when every lifespan is at most D).
func TestLongerRunExtendsTrajectories(t *testing.T) {
	const d = 600
	run := func(duration float64) *Dataset {
		return runPipeline(t, func(c *Config) {
			c.Positioning = PositioningConfig{}
			c.Objects.Count, c.Objects.ArrivalRate = 40, 0
			c.Objects.MinLifespan, c.Objects.MaxLifespan = 900, 1200
			c.Trajectory.Duration = duration
		})
	}
	short, long := run(d), run(2*d)
	if len(short.Trajectories) != 40 || len(long.Trajectories) != len(short.Trajectories) {
		t.Fatalf("%d series at D, %d at 2D; want 40 each", len(short.Trajectories), len(long.Trajectories))
	}
	for i, want := range short.Trajectories {
		got := long.Trajectories[i]
		n := 0
		for n < len(got) && got[n].T <= d {
			n++
		}
		if len(want) == 0 || !slices.Equal(got[:n], want) {
			t.Errorf("object %d: %d samples at t ≤ %d in the longer run, %d in the shorter, or they differ", i+1, n, d, len(want))
		}
	}

	type cell struct {
		obj    int
		device string
		t      float64
	}
	longer := make(map[cell]float64, len(long.RSSI))
	for _, m := range long.RSSI {
		longer[cell{m.ObjID, m.DeviceID, m.T}] = m.RSSI
	}
	equal := 0
	for _, m := range short.RSSI {
		if v, ok := longer[cell{m.ObjID, m.DeviceID, m.T}]; ok && v == m.RSSI {
			equal++
		}
	}
	t.Logf("RSSI at t ≤ %d: %d of %d cells equal in the longer run (not pinned)", d, equal, len(short.RSSI))
}

func TestPipelineAllBuildings(t *testing.T) {
	for _, src := range []string{"synthetic:office", "synthetic:mall", "synthetic:clinic"} {
		src := src
		t.Run(src, func(t *testing.T) {
			ds := runPipeline(t, func(c *Config) {
				c.Building.Source = src
				c.Devices = []DeviceConfig{{Floor: 0, Model: "coverage", Type: "wifi", Count: 8}}
			})
			if ds.TrajectoryStats.Samples == 0 {
				t.Errorf("%s: no samples", src)
			}
		})
	}
}

func TestLoadConfig(t *testing.T) {
	js := `{
		"seed": 7,
		"building": {"source": "synthetic:mall"},
		"objects": {"count": 5, "min_lifespan": 30, "max_lifespan": 60, "max_speed": 1.2,
		            "distribution": "crowd-outliers"},
		"trajectory": {"duration": 60},
		"positioning": {"method": "proximity"}
	}`
	cfg, err := LoadConfig(strings.NewReader(js))
	if err != nil {
		t.Fatalf("load config: %v", err)
	}
	if cfg.Seed != 7 || cfg.Building.Source != "synthetic:mall" {
		t.Errorf("config not applied: %+v", cfg)
	}
	if cfg.Objects.Distribution != "crowd-outliers" {
		t.Errorf("distribution not applied")
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Building.Source = ""
	if _, err := NewPipeline(cfg); err == nil {
		t.Error("expected error for missing building source")
	}
	cfg = DefaultConfig()
	cfg.Trajectory.Duration = 0
	if _, err := NewPipeline(cfg); err == nil {
		t.Error("expected error for zero duration")
	}
	cfg = DefaultConfig()
	cfg.Positioning.Method = "warp-drive"
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil {
		t.Error("expected error for unknown positioning method")
	}
}

// TestDeployRejectsDuplicateDeviceIDs: device IDs name the device type,
// floor and index, so two batches of one type on one floor collide, and the
// deployment must fail rather than hand positioning two devices one ID.
func TestDeployRejectsDuplicateDeviceIDs(t *testing.T) {
	topology, _, err := IndoorEnvironmentController{Config: DefaultConfig().Building}.Load()
	if err != nil {
		t.Fatal(err)
	}
	wifi := DeviceConfig{Floor: 0, Model: "coverage", Type: "wifi", Count: 3}
	if _, err := (PositioningDeviceController{Configs: []DeviceConfig{wifi}}).Deploy(topology, rng.New(1)); err != nil {
		t.Fatalf("one batch: %v", err)
	}
	_, err = PositioningDeviceController{Configs: []DeviceConfig{wifi, wifi}}.Deploy(topology, rng.New(1))
	if err == nil || !strings.Contains(err.Error(), "duplicate device ID") {
		t.Errorf("two wifi batches on floor 0: err = %v, want a duplicate device ID", err)
	}
}
