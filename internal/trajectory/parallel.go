package trajectory

import (
	"sync"
	"sync/atomic"
)

// Run simulates the configured duration and returns the run's ground truth
// as series slots: slot i holds the samples of the i-th object of the
// roster, in time order, stored by the worker that simulated it (empty when
// the object produced no sample). The spawner numbers objects 1, 2, … in
// roster order, so slot i is object i+1. Every worker has finished when Run
// returns; Merge turns the slots into one time-ordered stream.
//
// The full roster (initial population plus Poisson arrivals) is scheduled
// up-front from the engine's master RNG, and each object is simulated on a
// stream derived deterministically from (master RNG, object ID). The caller
// and cfg.Parallelism-1 goroutines claim objects one at a time, in roster
// order, from a shared counter, so however much each object costs no worker
// idles while another holds a queue of them. Output is therefore
// byte-identical for every Parallelism value.
func (e *Engine) Run() ([][]Sample, Stats, error) {
	objs, err := e.spawner.ScheduleUntil(e.cfg.Duration, e.rnd)
	if err != nil {
		return nil, e.stats, err
	}
	e.stats.Spawned += len(objs)

	streams := e.rnd.Streams()
	series := make([][]Sample, len(objs))
	perObj := make([]Stats, len(objs))

	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(objs); i = int(next.Add(1) - 1) {
			o := objs[i]
			sim := &objectSim{eng: e, o: o, rnd: streams.Stream(uint64(o.ID))}
			series[i] = sim.run()
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
