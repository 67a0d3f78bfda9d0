package trajectory

import "sync"

// ObjectDone receives the finished series of one object: its samples in time
// order, never empty. Run calls it once per object that produced a sample,
// on the worker goroutine that simulated the object, so calls for different
// objects may run concurrently and in any order. The callee may keep series
// but must not modify it: the merge collector may still be reading it.
type ObjectDone func(series []Sample)

// Run simulates the configured duration and hands the samples over in two
// shapes, each optional:
//
//   - emit receives every sample in global time order (ties broken by
//     ascending object ID), through a watermark Collector that merges the
//     per-object streams. emit is never invoked concurrently, but with
//     Parallelism > 1 it is called from worker goroutines rather than the
//     caller's.
//   - done receives each object's whole series as soon as the object is
//     simulated; see ObjectDone.
//
// With both nil, the run only does the movement work and counts (useful for
// benchmarks); with a nil emit no collector is built.
//
// The run is sharded by object across cfg.Parallelism workers: the full
// roster (initial population plus Poisson arrivals) is scheduled up-front
// from the engine's master RNG, and each object is simulated on a stream
// derived deterministically from (master RNG, object ID). Output is
// therefore byte-identical for every Parallelism value, including the
// sequential Parallelism=1 case, which runs inline without goroutines.
func (e *Engine) Run(emit func(Sample), done ObjectDone) (Stats, error) {
	objs, err := e.spawner.ScheduleUntil(e.cfg.Duration, e.rnd)
	if err != nil {
		return e.stats, err
	}
	e.objects = append(e.objects, objs...)
	e.stats.Spawned += len(objs)

	streams := e.rnd.Streams()
	perObj := make([]Stats, len(objs))

	var col *Collector
	if emit != nil {
		col = NewCollector(emit)
		for _, o := range objs {
			col.Expect(o.ID, o.Birth)
		}
	}

	// simulate runs one object on its derived stream and hands the finished
	// series to the collector and to done.
	simulate := func(i int) {
		o := objs[i]
		sim := &objectSim{eng: e, o: o, rnd: streams.Stream(uint64(o.ID))}
		series := sim.run(col != nil || done != nil)
		if col != nil {
			col.Deliver(o.ID, series)
		}
		if done != nil && len(series) > 0 {
			done(series)
		}
		perObj[i] = sim.st
	}

	if workers := e.cfg.workers(); workers > 1 && len(objs) > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Static round-robin sharding: worker w owns objects
				// w, w+workers, ... — in ascending birth order, which keeps
				// the collector's watermark advancing steadily.
				for i := w; i < len(objs); i += workers {
					simulate(i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := range objs {
			simulate(i)
		}
	}

	if col != nil {
		col.Close()
	}
	// Reduce per-object stats in roster order so float accumulation is
	// deterministic regardless of worker scheduling.
	for i := range perObj {
		e.stats.add(perObj[i])
	}
	return e.stats, nil
}
