package core

import (
	"testing"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/topo"
)

// TestOneWayDoorConfig verifies the Indoor Environment Controller's door
// directionality customization (paper §2): a door restricted to
// room → hallway must not admit movement back into the room through it.
func TestOneWayDoorConfig(t *testing.T) {
	env := IndoorEnvironmentController{Config: BuildingConfig{
		Source: "synthetic:office",
		OneWayDoors: []OneWayDoorConfig{
			{Door: "F0-DS1", From: "F0-S1", To: "F0-HALL"},
		},
	}}
	topology, _, err := env.Load()
	if err != nil {
		t.Fatal(err)
	}
	var door *model.Door
	for _, d := range topology.B.Floors[0].Doors {
		if d.ID == "F0-DS1" {
			door = d
		}
	}
	if door == nil {
		t.Fatal("door missing")
	}
	if door.Direction == model.Both {
		t.Fatal("directionality not applied")
	}
	// Routing into the room must fail: F0-S1 has only that one door.
	from := model.At("office", 0, "", geom.Pt(2, 10)) // hallway
	to := model.At("office", 0, "", geom.Pt(12, 4))   // inside F0-S1
	if _, err := topology.Route(from, to, topo.MinDistance, topo.DefaultSpeedModel()); err == nil {
		t.Error("route into one-way room should fail")
	}
	// Routing out of the room must succeed.
	if _, err := topology.Route(to, from, topo.MinDistance, topo.DefaultSpeedModel()); err != nil {
		t.Errorf("route out of one-way room failed: %v", err)
	}
}

func TestOneWayDoorConfigErrors(t *testing.T) {
	cases := []BuildingConfig{
		{Source: "synthetic:office", OneWayDoors: []OneWayDoorConfig{
			{Door: "NOPE", From: "A", To: "B"}}},
		{Source: "synthetic:office", OneWayDoors: []OneWayDoorConfig{
			{Door: "F0-DS1", From: "F0-S9", To: "F0-HALL"}}},
	}
	for i, cfg := range cases {
		env := IndoorEnvironmentController{Config: cfg}
		if _, _, err := env.Load(); err == nil {
			t.Errorf("case %d: invalid one-way door accepted", i)
		}
	}
}

// TestObstacleConfig verifies user-deployed obstacles block radio line of
// sight (paper §2).
func TestObstacleConfig(t *testing.T) {
	plain := IndoorEnvironmentController{Config: BuildingConfig{Source: "synthetic:office"}}
	tpPlain, _, err := plain.Load()
	if err != nil {
		t.Fatal(err)
	}
	withObs := IndoorEnvironmentController{Config: BuildingConfig{
		Source: "synthetic:office",
		Obstacles: []ObstacleConfig{
			{Floor: 0, MinX: 17, MinY: 9, MaxX: 19, MaxY: 11},
		},
	}}
	tpObs, _, err := withObs.Load()
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.Pt(14, 10), geom.Pt(22, 10)
	if n := tpPlain.Crossings(0, a, b); n != 0 {
		t.Fatalf("baseline hallway path blocked: %d crossings", n)
	}
	if n := tpObs.Crossings(0, a, b); n == 0 {
		t.Error("user obstacle does not block line of sight")
	}
}

func TestObstacleConfigErrors(t *testing.T) {
	cases := []BuildingConfig{
		{Source: "synthetic:office", Obstacles: []ObstacleConfig{
			{Floor: 9, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}},
		{Source: "synthetic:office", Obstacles: []ObstacleConfig{
			{Floor: 0, MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}}}, // zero area
	}
	for i, cfg := range cases {
		env := IndoorEnvironmentController{Config: cfg}
		if _, _, err := env.Load(); err == nil {
			t.Errorf("case %d: invalid obstacle accepted", i)
		}
	}
}

// TestObstacleAffectsPipelineRSSI runs the full pipeline with and without a
// large obstacle and checks the RSSI distribution shifts down.
func TestObstacleAffectsPipelineRSSI(t *testing.T) {
	mean := func(obst []ObstacleConfig) float64 {
		cfg := DefaultConfig()
		cfg.Trajectory.Duration = 60
		cfg.Objects.Count = 8
		cfg.Objects.MinLifespan = 60
		cfg.Objects.MaxLifespan = 60
		cfg.Building.Obstacles = obst
		cfg.Positioning.Method = ""
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, m := range ds.RSSI {
			sum += m.RSSI
			n++
		}
		if n == 0 {
			t.Fatal("no RSSI rows")
		}
		return sum / float64(n)
	}
	clear := mean(nil)
	blocked := mean([]ObstacleConfig{
		{Floor: 0, MinX: 1, MinY: 8.5, MaxX: 39, MaxY: 11.5}, // wall down the hallway
	})
	if blocked >= clear {
		t.Errorf("obstacle did not weaken RSSI: clear=%.2f blocked=%.2f", clear, blocked)
	}
}
