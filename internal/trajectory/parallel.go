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
// emit, when non-nil, receives every sample in global time order (ties
// broken by ascending object ID): Run makes a Collector for the roster's
// births, hands it each object's series, and returns it once every object is
// simulated, while the merge may still be draining. The caller Closes it to
// wait for the merge; it is nil when emit is.
//
// The full roster (initial population plus Poisson arrivals) is scheduled
// up-front from the engine's master RNG, and each object is simulated on a
// stream derived deterministically from (master RNG, object ID). The caller
// and cfg.Parallelism-1 goroutines claim objects one at a time, in roster
// (ascending birth) order, from a shared counter — which keeps the
// collector's watermark advancing steadily whatever each object costs.
// Output is therefore byte-identical for every Parallelism value.
func (e *Engine) Run(emit func([]Sample) error) ([][]Sample, *Collector, Stats, error) {
	objs, err := e.spawner.ScheduleUntil(e.cfg.Duration, e.rnd)
	if err != nil {
		return nil, nil, e.stats, err
	}
	e.objects = append(e.objects, objs...)
	e.stats.Spawned += len(objs)

	streams := e.rnd.Streams()
	series := make([][]Sample, len(objs))
	perObj := make([]Stats, len(objs))
	var col *Collector
	if emit != nil {
		births := make([]float64, len(objs))
		for i, o := range objs {
			births[i] = o.Birth
		}
		if col, err = NewCollector(births, emit); err != nil {
			return nil, nil, e.stats, err
		}
	}

	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(objs); i = int(next.Add(1) - 1) {
			o := objs[i]
			sim := &objectSim{eng: e, o: o, rnd: streams.Stream(uint64(o.ID))}
			series[i] = sim.run()
			if col != nil {
				col.Deliver(i, series[i])
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
	return series, col, e.stats, nil
}
