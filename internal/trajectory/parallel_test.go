package trajectory

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

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

// TestSeriesHandOver pins the engine's two hand-overs against each other at
// every worker count: slot i holds object i+1's samples in time order; the
// slots, concatenated and stable-sorted by (time, object ID), are exactly the
// collector's stream; and that stream is the same at P 1, 2 and 8.
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
		var stream []Sample
		col := NewCollector(func(b []Sample) error {
			stream = append(stream, b...)
			return nil
		})
		series, _, err := eng.Run(col)
		if cerr := col.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
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
		merged := slices.Concat(series...)
		slices.SortStableFunc(merged, func(a, b Sample) int {
			return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.ObjID, b.ObjID))
		})
		if !slices.Equal(merged, stream) {
			t.Fatalf("p=%d: the slots regrouped differ from the collector stream", p)
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

// TestParallelNilEmit keeps a run without a collector working under
// parallelism: its slots hold every sample the stats count.
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
		series, stats, err := eng.Run(nil)
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

// --- collector unit tests ---

func s(obj int, t float64) Sample { return Sample{ObjID: obj, T: t} }

func TestCollectorMergesTimeSorted(t *testing.T) {
	var got []Sample
	var waiting atomic.Bool // object 2 (birth 0) not delivered yet
	waiting.Store(true)
	c := NewCollector(func(b []Sample) error {
		if waiting.Load() {
			t.Errorf("emitted %v while object 2 (birth 0) pending", b)
		}
		got = append(got, b...)
		return nil
	})
	c.Expect(1, 0)
	c.Expect(2, 0)
	c.Expect(3, 50)

	// Deliver out of object order; nothing may be emitted past the pending
	// watermark (object 2 still out, birth 0).
	c.Deliver(3, []Sample{s(3, 50), s(3, 60)})
	c.Deliver(1, []Sample{s(1, 0), s(1, 10), s(1, 55)})
	waiting.Store(false)
	c.Deliver(2, []Sample{s(2, 0), s(2, 10), s(2, 20)})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	want := []Sample{
		s(1, 0), s(2, 0), s(1, 10), s(2, 10), s(2, 20), s(3, 50), s(1, 55), s(3, 60),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

func TestCollectorStreamsBeforeCompletion(t *testing.T) {
	batches := make(chan []Sample, 8)
	c := NewCollector(func(b []Sample) error {
		batches <- slices.Clone(b)
		return nil
	})
	c.Expect(1, 0)
	c.Expect(2, 100)
	c.Deliver(1, []Sample{s(1, 0), s(1, 50), s(1, 150)})
	// Object 2 is born at t=100: everything before that is already safe, and
	// streams out before object 2 arrives.
	select {
	case b := <-batches:
		if want := []Sample{s(1, 0), s(1, 50)}; !slices.Equal(b, want) {
			t.Fatalf("first batch %v, want the pre-watermark samples %v", b, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the pre-watermark samples never streamed out")
	}
	c.Deliver(2, []Sample{s(2, 100)})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	close(batches)
	var rest []Sample
	for b := range batches {
		rest = append(rest, b...)
	}
	if want := []Sample{s(2, 100), s(1, 150)}; !slices.Equal(rest, want) {
		t.Fatalf("after the last delivery %v, want %v", rest, want)
	}
}

func TestCollectorEmptyStreams(t *testing.T) {
	var got []Sample
	c := NewCollector(func(b []Sample) error {
		got = append(got, b...)
		return nil
	})
	c.Expect(1, 0)
	c.Expect(2, 10)
	c.Deliver(2, nil) // died before its first sample instant
	c.Deliver(1, []Sample{s(1, 0), s(1, 20)})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d, want 2", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].T < got[j].T }) {
		t.Error("merged output not time-sorted")
	}
}

// TestCollectorDeliverDoesNotWait: Deliver only queues its series. With emit
// stuck inside the sink, every worker's Deliver still returns at once.
func TestCollectorDeliverDoesNotWait(t *testing.T) {
	release := make(chan struct{})
	var got []Sample
	c := NewCollector(func(b []Sample) error {
		<-release
		got = append(got, b...)
		return nil
	})
	const objects = 50
	for id := range objects {
		c.Expect(id, 0)
	}
	delivered := make(chan struct{})
	go func() {
		for id := range objects {
			c.Deliver(id, []Sample{s(id, 0), s(id, 1)})
		}
		close(delivered)
	}()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("Deliver waited for the merge")
	}
	close(release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*objects {
		t.Fatalf("merged %d samples, want %d", len(got), 2*objects)
	}
}

// TestCollectorBatchesAndErrors: emit gets runs of at most mergeBatch
// samples; after its first error it is never called again, the buffered
// samples are dropped, and Close returns that error.
func TestCollectorBatchesAndErrors(t *testing.T) {
	long := func(id int) []Sample {
		ss := make([]Sample, mergeBatch+100)
		for k := range ss {
			ss[k] = s(id, float64(k))
		}
		return ss
	}
	calls, total := 0, 0
	c := NewCollector(func(b []Sample) error {
		if len(b) == 0 || len(b) > mergeBatch {
			t.Errorf("batch of %d samples", len(b))
		}
		calls++
		total += len(b)
		return nil
	})
	for id := range 3 {
		c.Expect(id, 0)
	}
	for id := range 3 {
		c.Deliver(id, long(id))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if want := 3 * (mergeBatch + 100); total != want || calls < 3 {
		t.Fatalf("%d samples in %d calls, want %d in at least 3", total, calls, want)
	}

	boom := errors.New("disk full")
	calls = 0
	c = NewCollector(func([]Sample) error {
		calls++
		return boom
	})
	for id := range 3 {
		c.Expect(id, 0)
	}
	for id := range 3 {
		c.Deliver(id, long(id))
	}
	if err := c.Close(); err != boom {
		t.Fatalf("Close returned %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want once (nothing after its error)", calls)
	}
}
