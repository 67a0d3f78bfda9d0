package trajectory

import (
	"cmp"
	"slices"
	"testing"

	"vita/internal/object"
	"vita/internal/rng"
)

func runEngineP(t testing.TB, seed uint64, parallelism int, spawn object.SpawnConfig) ([]Sample, Stats) {
	t.Helper()
	tp := officeTopo(t)
	sp, err := object.NewSpawner(tp, spawn)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tp, sp, Config{
		Duration: 120, SampleInterval: 1, Parallelism: parallelism,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return runMerged(t, eng)
}

// TestParallelIdenticalToSequential is the core reproducibility guarantee of
// sharded generation: any worker count produces the exact same samples, in
// the exact same order, with the exact same stats.
func TestParallelIdenticalToSequential(t *testing.T) {
	spawn := defaultSpawn()
	spawn.InitialCount = 12
	spawn.ArrivalRate = 0.05 // exercise mid-run births across shards
	spawn.MinLifespan, spawn.MaxLifespan = 40, 110

	base, baseStats := runEngineP(t, 77, 1, spawn)
	if len(base) == 0 {
		t.Fatal("no samples from sequential run")
	}
	for _, p := range []int{2, 4, 8} {
		got, gotStats := runEngineP(t, 77, p, spawn)
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: %d samples, sequential %d", p, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d: sample %d differs: %+v vs %+v", p, i, got[i], base[i])
			}
		}
		if gotStats != baseStats {
			t.Errorf("parallelism %d: stats differ: %+v vs %+v", p, gotStats, baseStats)
		}
	}
}

// TestSeriesHandOver pins the engine's slots and Merge's stream of them
// against each other at every worker count: slot i holds object i+1's
// samples in time order; the slots, concatenated and stable-sorted by (time,
// object ID), are exactly the merged stream; and that stream is the same at
// P 1, 2 and 8.
func TestSeriesHandOver(t *testing.T) {
	tp := officeTopo(t)
	var base []Sample
	for _, p := range []int{1, 2, 8} {
		sp, err := object.NewSpawner(tp, object.SpawnConfig{
			InitialCount: 10, MinLifespan: 40, MaxLifespan: 110, MaxSpeed: 1.5,
			Pattern: object.DefaultPattern(), ArrivalRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(tp, sp, Config{Duration: 120, SampleInterval: 1, Parallelism: p}, rng.New(25))
		if err != nil {
			t.Fatal(err)
		}
		series, _, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		stream := merged(t, series)
		if len(stream) == 0 {
			t.Fatal("no samples")
		}
		for i, ser := range series {
			for j, s := range ser {
				if s.ObjID != i+1 || (j > 0 && s.T <= ser[j-1].T) {
					t.Fatalf("p=%d: slot %d sample %d is object %d at %v, want object %d in time order", p, i, j, s.ObjID, s.T, i+1)
				}
			}
		}
		regrouped := slices.Concat(series...)
		slices.SortStableFunc(regrouped, func(a, b Sample) int {
			return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.ObjID, b.ObjID))
		})
		if !slices.Equal(regrouped, stream) {
			t.Fatalf("p=%d: the slots regrouped differ from the merged stream", p)
		}
		if base == nil {
			base = stream
		} else if !slices.Equal(stream, base) {
			t.Fatalf("p=%d: stream differs from p=1", p)
		}
	}
}

// TestParallelEmitOrder asserts the documented global emit order:
// nondecreasing time, ties broken by ascending object ID.
func TestParallelEmitOrder(t *testing.T) {
	spawn := defaultSpawn()
	spawn.InitialCount = 10
	spawn.ArrivalRate = 0.05
	spawn.MinLifespan, spawn.MaxLifespan = 40, 110
	samples, _ := runEngineP(t, 5, 4, spawn)
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if b.T < a.T || (b.T == a.T && b.ObjID <= a.ObjID) {
			t.Fatalf("emit order violated at %d: (%v,%d) then (%v,%d)", i, a.T, a.ObjID, b.T, b.ObjID)
		}
	}
}

// TestParallelNilEmit: under parallelism, a run's slots hold every sample
// the stats count.
func TestParallelNilEmit(t *testing.T) {
	tp := officeTopo(t)
	for _, p := range []int{1, 4} {
		sp, err := object.NewSpawner(tp, defaultSpawn())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(tp, sp, Config{Duration: 60, SampleInterval: 1, Parallelism: p}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		series, stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(slices.Concat(series...)); stats.Samples == 0 || n != stats.Samples {
			t.Errorf("parallelism %d: slots hold %d samples, stats count %d", p, n, stats.Samples)
		}
	}
}

func TestConfigParallelismValidation(t *testing.T) {
	tp := officeTopo(t)
	sp, err := object.NewSpawner(tp, defaultSpawn())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(tp, sp, Config{Duration: 10, Parallelism: -1}, rng.New(1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	if (Config{Parallelism: 0}).workers() < 1 {
		t.Error("zero parallelism must resolve to at least one worker")
	}
}

func TestScheduleUntilMatchesIncrementalArrivals(t *testing.T) {
	tp := officeTopo(t)
	spawn := defaultSpawn()
	spawn.ArrivalRate = 0.1

	mk := func() *object.Spawner {
		sp, err := object.NewSpawner(tp, spawn)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	all, err := mk().ScheduleUntil(120, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}

	// Incremental ticked arrivals over the same stream must yield the same
	// roster: same IDs, births, lifespans, speeds, start locations.
	r := rng.New(9)
	sp := mk()
	inc, err := sp.Initial(r)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for tt := 0.25; tt <= 120; tt += 0.25 {
		batch, err := sp.ArrivalsUntil(prev, tt, r)
		if err != nil {
			t.Fatal(err)
		}
		inc = append(inc, batch...)
		prev = tt
	}
	if len(all) != len(inc) {
		t.Fatalf("roster sizes differ: schedule %d vs incremental %d", len(all), len(inc))
	}
	if len(all) <= spawn.InitialCount {
		t.Fatalf("no arrivals scheduled (got %d objects)", len(all))
	}
	for i := range all {
		a, b := all[i], inc[i]
		if a.ID != b.ID || a.Birth != b.Birth || a.Lifespan != b.Lifespan ||
			a.MaxSpeed != b.MaxSpeed || a.Loc != b.Loc {
			t.Fatalf("object %d differs: %+v vs %+v", i, a, b)
		}
	}
}
