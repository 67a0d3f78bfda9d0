package trajectory

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ObjectDone receives the finished series of one object: its samples in time
// order, never empty. Run calls it once per object that produced a sample,
// on the worker goroutine that simulated the object, so calls for different
// objects may run concurrently and in any order. The callee may keep series
// but must not modify it: the merge collector may still be reading it.
type ObjectDone func(series []Sample)

// Run simulates the configured duration and hands the samples over in two
// shapes, each optional:
//
//   - col, a Collector the caller made and later Closes, receives every
//     object's series and merges them into global time order (ties broken
//     by ascending object ID) on its own goroutine. Run registers the roster
//     with it and returns once every object is simulated, while the merge
//     may still be draining: Close waits for it.
//   - done receives each object's whole series as soon as the object is
//     simulated; see ObjectDone.
//
// With both nil, the run only does the movement work and counts (useful for
// benchmarks).
//
// The full roster (initial population plus Poisson arrivals) is scheduled
// up-front from the engine's master RNG, and each object is simulated on a
// stream derived deterministically from (master RNG, object ID). The caller
// and cfg.Parallelism-1 goroutines claim objects one at a time, in roster
// (ascending birth) order, from a shared counter — which keeps the
// collector's watermark advancing steadily whatever each object costs.
// Output is therefore byte-identical for every Parallelism value.
func (e *Engine) Run(col *Collector, done ObjectDone) (Stats, error) {
	objs, err := e.spawner.ScheduleUntil(e.cfg.Duration, e.rnd)
	if err != nil {
		return e.stats, err
	}
	e.objects = append(e.objects, objs...)
	e.stats.Spawned += len(objs)

	streams := e.rnd.Streams()
	perObj := make([]Stats, len(objs))
	if col != nil {
		for _, o := range objs {
			col.Expect(o.ID, o.Birth)
		}
	}

	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(objs); i = int(next.Add(1) - 1) {
			o := objs[i]
			sim := &objectSim{eng: e, o: o, rnd: streams.Stream(uint64(o.ID))}
			series := sim.run(col != nil || done != nil)
			if col != nil {
				col.Deliver(o.ID, series)
				// Let the merge goroutine Deliver woke run now: with every
				// processor simulating, it would otherwise wait for the next
				// preemption, and the first rows with it.
				runtime.Gosched()
			}
			if done != nil && len(series) > 0 {
				done(series)
			}
			perObj[i] = sim.st
		}
	}
	var wg sync.WaitGroup
	for range min(e.cfg.workers(), len(objs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// Reduce per-object stats in roster order so float accumulation is
	// deterministic regardless of worker scheduling.
	for i := range perObj {
		e.stats.add(perObj[i])
	}
	return e.stats, nil
}
