package core

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/topo"
)

// TestOneWayDoorConfig verifies the Indoor Environment Controller's door
// directionality customization (paper §2): a door restricted to
// room → hallway must not admit movement back into the room through it.
// Each room's only door is the one-way one, so a route leaves the room and
// none enters it, and the Load report names the room as a DBI error.
func TestOneWayDoorConfig(t *testing.T) {
	// The office with room IDs that contain a '.': the floor-0 hallway is
	// F0.HALL (decomposed into F0.HALL.1, ...) and room F0-S1 is F0.HALL-S1,
	// whose ID sorts after F0.HALL but before its pieces.
	dotted := filepath.Join(t.TempDir(), "dotted.ifc")
	text := strings.NewReplacer("'F0-HALL'", "'F0.HALL'", "'F0-S1'", "'F0.HALL-S1'").Replace(ifc.OfficeIFC())
	if err := os.WriteFile(dotted, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		src  string
		door OneWayDoorConfig
		room geom.Point // inside door.From
	}{
		{"room door", "synthetic:office",
			OneWayDoorConfig{Door: "F0-DS1", From: "F0-S1", To: "F0-HALL"}, geom.Pt(12, 4)},
		// F0-DS2 sits on the hallway's decomposition cut at x = 20.
		{"door on a hallway cut", "synthetic:office",
			OneWayDoorConfig{Door: "F0-DS2", From: "F0-S2", To: "F0-HALL"}, geom.Pt(20, 4)},
		{"dotted room IDs", "file:" + dotted,
			OneWayDoorConfig{Door: "F0-DS1", From: "F0.HALL-S1", To: "F0.HALL"}, geom.Pt(12, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := IndoorEnvironmentController{Config: BuildingConfig{
				Source: tc.src, OneWayDoors: []OneWayDoorConfig{tc.door},
			}}
			topology, report, err := env.Load()
			if err != nil {
				t.Fatal(err)
			}
			// The door only leaves the room, so nothing can walk in: the
			// report names the room once, as one that cannot be entered.
			errs := report.Errors()
			if len(errs) != 1 || errs[0].Entity != tc.door.From || !strings.Contains(errs[0].Message, "cannot be entered") {
				t.Errorf("unrepaired DBI errors %v, want one naming %s as a room that cannot be entered", errs, tc.door.From)
			}
			var door *model.Door
			f0, _ := topology.B.Floor(0)
			for _, d := range f0.Doors {
				if d.ID == tc.door.Door {
					door = d
				}
			}
			if door == nil {
				t.Fatal("door missing")
			}
			if door.Direction == model.Both {
				t.Fatal("directionality not applied")
			}
			hall := model.At("office", 0, "", geom.Pt(2, 10))
			room := model.At("office", 0, "", tc.room)
			if _, err := topology.Route(hall, room, topo.MinDistance); err == nil {
				t.Errorf("route into one-way room %s should fail", tc.door.From)
			}
			if _, err := topology.Route(room, hall, topo.MinDistance); err != nil {
				t.Errorf("route out of one-way room %s failed: %v", tc.door.From, err)
			}
		})
	}
}

// TestDoorlessPartitionIsDBIError: a DBI room without a door is an
// unrepaired error in the Load report, naming the room once — also when
// decomposition cut it into pieces joined by their own doors — while the
// three synthetic buildings report none.
func TestDoorlessPartitionIsDBIError(t *testing.T) {
	// The office without F0-DS1, the only door of room F0-S1.
	var lines []string
	for _, l := range strings.Split(ifc.OfficeIFC(), "\n") {
		if !strings.Contains(l, "IFCDOOR('F0-DS1'") {
			lines = append(lines, l)
		}
	}
	path := filepath.Join(t.TempDir(), "doorless.ifc")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src     string
		maxArea float64
		want    []string // entities of the unrepaired errors
	}{
		{"file:" + path, 0, []string{"F0-S1"}},
		{"file:" + path, 20, []string{"F0-S1"}},
		{"synthetic:office", 0, nil},
		{"synthetic:mall", 0, nil},
		{"synthetic:clinic", 0, nil},
	} {
		cfg := BuildingConfig{Source: tc.src, MaxPartitionArea: tc.maxArea}
		_, report, err := IndoorEnvironmentController{Config: cfg}.Load()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, is := range report.Errors() {
			got = append(got, is.Entity)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s at max area %g: unrepaired DBI errors on %v, want %v (report %v)", tc.src, tc.maxArea, got, tc.want, report.Issues)
		}
	}
}

// TestOneWayTrapIsDBIError: a room whose only door leads into it can be
// entered but not left, and the Load report says so, also when
// decomposition cuts the room into pieces.
func TestOneWayTrapIsDBIError(t *testing.T) {
	for _, maxArea := range []float64{0, 20} {
		cfg := BuildingConfig{
			Source:           "synthetic:office",
			MaxPartitionArea: maxArea,
			OneWayDoors:      []OneWayDoorConfig{{Door: "F0-DS1", From: "F0-HALL", To: "F0-S1"}},
		}
		_, report, err := IndoorEnvironmentController{Config: cfg}.Load()
		if err != nil {
			t.Fatal(err)
		}
		errs := report.Errors()
		if len(errs) != 1 || errs[0].Entity != "F0-S1" || !strings.Contains(errs[0].Message, "cannot be left") {
			t.Errorf("max area %g: unrepaired DBI errors %v, want one naming F0-S1 as a room that cannot be left", maxArea, errs)
		}
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
