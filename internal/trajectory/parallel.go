package trajectory

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run simulates the configured duration and returns the run's ground truth
// as series slots: slot i holds the samples of the i-th object of the
// roster, in time order, stored by the worker that simulated it (empty when
// the object produced no sample). The spawner numbers objects 1, 2, … in
// roster order, so slot i is object i+1. Nothing writes a slot after Run
// returns, but the merge may still be reading it.
//
// col, when non-nil, is a Collector the caller made and later Closes: it
// receives every object's series and merges them into global time order
// (ties broken by ascending object ID) on its own goroutine. Run registers
// the roster with it and returns once every object is simulated, while the
// merge may still be draining: Close waits for it.
//
// The full roster (initial population plus Poisson arrivals) is scheduled
// up-front from the engine's master RNG, and each object is simulated on a
// stream derived deterministically from (master RNG, object ID). The caller
// and cfg.Parallelism-1 goroutines claim objects one at a time, in roster
// (ascending birth) order, from a shared counter — which keeps the
// collector's watermark advancing steadily whatever each object costs.
// Output is therefore byte-identical for every Parallelism value.
func (e *Engine) Run(col *Collector) ([][]Sample, Stats, error) {
	objs, err := e.spawner.ScheduleUntil(e.cfg.Duration, e.rnd)
	if err != nil {
		return nil, e.stats, err
	}
	e.objects = append(e.objects, objs...)
	e.stats.Spawned += len(objs)

	streams := e.rnd.Streams()
	series := make([][]Sample, len(objs))
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
			series[i] = sim.run()
			if col != nil {
				col.Deliver(o.ID, series[i])
				// Let the merge goroutine Deliver woke run now: with every
				// processor simulating, it would otherwise wait for the next
				// preemption, and the first rows with it.
				runtime.Gosched()
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
	return series, e.stats, nil
}
