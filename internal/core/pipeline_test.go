package core

import (
	"strings"
	"testing"

	"vita/internal/rng"
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
	if ds.Trajectories.Len() == 0 {
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
	if a.Trajectories.Len() != b.Trajectories.Len() {
		t.Errorf("trajectory counts differ across identical runs: %d vs %d",
			a.Trajectories.Len(), b.Trajectories.Len())
	}
	if len(a.RSSI) != len(b.RSSI) {
		t.Errorf("RSSI counts differ: %d vs %d", len(a.RSSI), len(b.RSSI))
	}
	as, bs := a.Trajectories.All(), b.Trajectories.All()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, as[i], bs[i])
		}
	}
}

func TestPipelineAllBuildings(t *testing.T) {
	for _, src := range []string{"synthetic:office", "synthetic:mall", "synthetic:clinic"} {
		src := src
		t.Run(src, func(t *testing.T) {
			ds := runPipeline(t, func(c *Config) {
				c.Building.Source = src
				c.Devices = []DeviceConfig{{Floor: 0, Model: "coverage", Type: "wifi", Count: 8}}
			})
			if ds.Trajectories.Len() == 0 {
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
