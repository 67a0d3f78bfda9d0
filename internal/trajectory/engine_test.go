package trajectory

import (
	"math"
	"testing"

	"vita/internal/ifc"
	"vita/internal/object"
	"vita/internal/rng"
	"vita/internal/topo"
)

func officeTopo(t testing.TB) *topo.Topology {
	t.Helper()
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ifc.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(b, topo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func runEngine(t testing.TB, seed uint64, cfg Config, spawn object.SpawnConfig) ([]Sample, Stats) {
	t.Helper()
	tp := officeTopo(t)
	sp, err := object.NewSpawner(tp, spawn)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tp, sp, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return runMerged(t, eng)
}

// runMerged runs eng and returns its slots merged into one stream.
func runMerged(t testing.TB, eng *Engine) ([]Sample, Stats) {
	t.Helper()
	series, stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return merged(t, series), stats
}

// merged collects Merge's stream of series.
func merged(t testing.TB, series [][]Sample) []Sample {
	t.Helper()
	var samples []Sample
	if err := Merge(series, func(b []Sample) error {
		samples = append(samples, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return samples
}

func defaultSpawn() object.SpawnConfig {
	return object.SpawnConfig{
		InitialCount: 8,
		MinLifespan:  120, MaxLifespan: 120,
		MaxSpeed: 1.6,
		Pattern:  object.DefaultPattern(),
	}
}

func TestEngineProducesOrderedSamples(t *testing.T) {
	samples, stats := runEngine(t, 1, Config{Duration: 120, SampleInterval: 1}, defaultSpawn())
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	if stats.Spawned != 8 {
		t.Errorf("spawned %d", stats.Spawned)
	}
	// Per-object timestamps strictly increasing.
	last := map[int]float64{}
	for _, s := range samples {
		if prev, ok := last[s.ObjID]; ok && s.T <= prev {
			t.Fatalf("object %d samples out of order: %v after %v", s.ObjID, s.T, prev)
		}
		last[s.ObjID] = s.T
	}
}

func TestEngineSamplesInsideBuilding(t *testing.T) {
	tp := officeTopo(t)
	samples, _ := runEngine(t, 2, Config{Duration: 120, SampleInterval: 1}, defaultSpawn())
	for _, s := range samples {
		f, ok := tp.B.Floor(s.Loc.Floor)
		if !ok {
			t.Fatalf("sample on unknown floor %d", s.Loc.Floor)
		}
		bb := f.BBox().Expand(0.5)
		if !bb.Contains(s.Loc.Point) {
			t.Fatalf("sample outside building: %v", s.Loc)
		}
		if s.Loc.Partition == "" {
			t.Fatalf("sample without partition at t=%v", s.T)
		}
	}
}

func TestEngineSpeedBound(t *testing.T) {
	spawn := defaultSpawn()
	spawn.MaxSpeed = 1.5
	samples, _ := runEngine(t, 3, Config{Duration: 120, SampleInterval: 1}, spawn)
	byObj := map[int][]Sample{}
	for _, s := range samples {
		byObj[s.ObjID] = append(byObj[s.ObjID], s)
	}
	for id, series := range byObj {
		for i := 1; i < len(series); i++ {
			a, b := series[i-1], series[i]
			if a.Loc.Floor != b.Loc.Floor {
				continue // stair traversal teleports floors at leg end
			}
			dt := b.T - a.T
			dist := a.Loc.Point.Dist(b.Loc.Point)
			// Allow slack for leg transitions within one sampling period.
			if dist > spawn.MaxSpeed*dt*1.6+0.5 {
				t.Fatalf("object %d moved %.2fm in %.2fs (max speed %.1f)", id, dist, dt, spawn.MaxSpeed)
			}
		}
	}
}

func TestEngineLifespanRespected(t *testing.T) {
	spawn := defaultSpawn()
	spawn.MinLifespan, spawn.MaxLifespan = 30, 40
	samples, stats := runEngine(t, 4, Config{Duration: 120, SampleInterval: 1}, spawn)
	for _, s := range samples {
		if s.T > 41 {
			t.Fatalf("sample at t=%v past max lifespan", s.T)
		}
	}
	if stats.Died != 8 {
		t.Errorf("died = %d, want 8", stats.Died)
	}
}

func TestEngineSamplingFrequencyControlsVolume(t *testing.T) {
	coarse, _ := runEngine(t, 5, Config{Duration: 100, SampleInterval: 5}, defaultSpawn())
	fine, _ := runEngine(t, 5, Config{Duration: 100, SampleInterval: 1}, defaultSpawn())
	ratio := float64(len(fine)) / float64(len(coarse))
	if ratio < 4 || ratio > 6 {
		t.Errorf("sample volume ratio = %.2f, want ≈5 (fine=%d coarse=%d)", ratio, len(fine), len(coarse))
	}
}

func TestEngineDeterminism(t *testing.T) {
	a, _ := runEngine(t, 7, Config{Duration: 60, SampleInterval: 1}, defaultSpawn())
	b, _ := runEngine(t, 7, Config{Duration: 60, SampleInterval: 1}, defaultSpawn())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestEngineRandomWayStaysConnected(t *testing.T) {
	spawn := defaultSpawn()
	spawn.Pattern.Intention = object.RandomWayIntent
	samples, stats := runEngine(t, 8, Config{Duration: 120, SampleInterval: 1}, spawn)
	if len(samples) == 0 {
		t.Fatal("no samples under random-way")
	}
	if stats.RoutesPlanned == 0 {
		t.Error("random-way planned no routes")
	}
}

func TestEngineWalkStayActuallyStays(t *testing.T) {
	spawn := defaultSpawn()
	spawn.Pattern.Behavior = object.WalkStay
	spawn.Pattern.MinStay, spawn.Pattern.MaxStay = 20, 30
	samples, _ := runEngine(t, 9, Config{Duration: 120, SampleInterval: 1}, spawn)
	// Some object must exhibit a period of near-zero movement (a stay).
	byObj := map[int][]Sample{}
	for _, s := range samples {
		byObj[s.ObjID] = append(byObj[s.ObjID], s)
	}
	stays := 0
	for _, series := range byObj {
		run := 0
		for i := 1; i < len(series); i++ {
			if series[i].Loc.Point.Dist(series[i-1].Loc.Point) < 0.01 {
				run++
				if run >= 10 { // >= 10s motionless
					stays++
					break
				}
			} else {
				run = 0
			}
		}
	}
	if stays == 0 {
		t.Error("walk-stay produced no observable stays")
	}
}

func TestEngineTotalDistanceConsistent(t *testing.T) {
	_, stats := runEngine(t, 10, Config{Duration: 120, SampleInterval: 1}, defaultSpawn())
	if stats.TotalDistance <= 0 {
		t.Fatal("no distance walked")
	}
	// 8 objects × 120s × max 1.6 m/s is a hard upper bound.
	if stats.TotalDistance > 8*120*1.6 {
		t.Errorf("distance %.1f exceeds physical bound", stats.TotalDistance)
	}
}

func TestConfigValidation(t *testing.T) {
	tp := officeTopo(t)
	sp, err := object.NewSpawner(tp, defaultSpawn())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(tp, sp, Config{Duration: 0}, rng.New(1)); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewEngine(tp, sp, Config{Duration: 10, Tick: -1}, rng.New(1)); err == nil {
		t.Error("negative tick accepted")
	}
}

func TestEngineCrossFloorMovement(t *testing.T) {
	// Long-lived objects in a two-floor building should eventually change
	// floors via the staircase.
	spawn := defaultSpawn()
	spawn.InitialCount = 12
	samples, _ := runEngine(t, 11, Config{Duration: 240, SampleInterval: 1}, spawn)
	floorsSeen := map[int]map[int]bool{}
	for _, s := range samples {
		if floorsSeen[s.ObjID] == nil {
			floorsSeen[s.ObjID] = map[int]bool{}
		}
		floorsSeen[s.ObjID][s.Loc.Floor] = true
	}
	crossed := 0
	for _, fl := range floorsSeen {
		if len(fl) > 1 {
			crossed++
		}
	}
	if crossed == 0 {
		t.Error("no object ever changed floors in 240s")
	}
}

func TestStatsSampleCountMatchesEmit(t *testing.T) {
	samples, stats := runEngine(t, 12, Config{Duration: 60, SampleInterval: 2}, defaultSpawn())
	if stats.Samples != len(samples) {
		t.Errorf("stats.Samples=%d, emitted=%d", stats.Samples, len(samples))
	}
	if math.Abs(float64(stats.Samples)-float64(8*31)) > float64(8*31)*0.2 {
		t.Errorf("sample count %d far from expected ≈%d", stats.Samples, 8*31)
	}
}

// TestTrajectoryInstantsOnGlobalGrid: every sample instant is k·SampleInterval
// for an integer k, so samples of different objects at one instant carry the
// same T, and a run's last sample lands on its duration — whatever the tick.
// Accumulating t += Tick and next += SampleInterval drifts off the grid for
// steps that are not dyadic fractions (0.1, 0.3).
func TestTrajectoryInstantsOnGlobalGrid(t *testing.T) {
	const duration = 300
	spawn := defaultSpawn()
	spawn.InitialCount = 3
	spawn.MinLifespan, spawn.MaxLifespan = 2*duration, 2*duration
	for _, tc := range []struct{ interval, tick float64 }{{0.1, 0.25}, {0.3, 0.25}, {0.1, 0.1}, {0.3, 0.1}} {
		samples, _ := runEngine(t, 3, Config{Duration: duration, Tick: tc.tick, SampleInterval: tc.interval}, spawn)
		off, last := 0, math.Inf(-1)
		for _, s := range samples {
			if k := math.Round(s.T / tc.interval); s.T != k*tc.interval {
				off++
			}
			last = math.Max(last, s.T)
		}
		if off != 0 {
			t.Errorf("interval %g, tick %g: %d of %d instants off the k·interval grid", tc.interval, tc.tick, off, len(samples))
		}
		if last != duration {
			t.Errorf("interval %g, tick %g: last instant %v, want %v", tc.interval, tc.tick, last, float64(duration))
		}
	}
}
