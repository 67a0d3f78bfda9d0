package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"vita/internal/serve"
)

// genSetups is how many reference generation runs precede the measured
// ones. They warm the process, fix the row counts every measured run must
// reproduce, and — each being a full run — are what setup_s reports for this
// workload.
const genSetups = 3

// rowCounts is what one generation run emitted through the sink.
type rowCounts struct{ traj, rssi, estimates int }

func (g *generated) counts() rowCounts {
	return rowCounts{g.sink.traj, g.sink.rssi, g.sink.estimates}
}

func (c rowCounts) total() int { return c.traj + c.rssi + c.estimates }

// runGen runs the gen_mall workload: whole pipeline runs into a segment
// log, the paper's own use of the system.
func runGen(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	profileName := "gen"
	if cfg.quick {
		profileName = "quick"
	}
	p, err := loadProfile(profileName, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := cfg.dataDir()
	defer removeAll(dir)

	// Set-up: reference runs.
	var setup []time.Duration
	var ref *generated
	for range cfg.setups(genSetups) {
		g, err := generate(p, dir, false, false)
		if err != nil {
			return nil, err
		}
		setup = append(setup, g.wall)
		if ref == nil {
			ref = g
		}
	}
	want := ref.counts()
	if want.traj == 0 {
		return nil, fmt.Errorf("gen_mall: profile %s generated no rows", profileName)
	}

	// The log a run leaves must reopen and report the rows the sink saw.
	res.attempt(1)
	if err := reopenCheck(dir, want.traj); err != nil {
		res.failure(err)
	}
	// The estimates are the end of the chain trajectory -> RSSI ->
	// positioning, so their digest pins what the generator generates.
	raw, err := json.Marshal(ref.sink.estimateRows)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	res.Digests = map[string]string{
		"estimates": hex.EncodeToString(sum[:]),
		"rows":      fmt.Sprintf("%d/%d/%d", want.traj, want.rssi, want.estimates),
	}
	res.attempt(1)
	if err := checkGolden(cfg.workload.name, cfg.seed, cfg.quick, res.Digests); err != nil {
		res.failure(err)
	}
	ref = nil

	// same reports a run whose row counts differ from the reference: the
	// generator is deterministic in its seed, so that is a wrong answer.
	same := func(g *generated) {
		res.attempt(1)
		if got := g.counts(); got != want {
			res.failure(fmt.Errorf("generation emitted %+v rows, reference run emitted %+v", got, want))
		}
	}
	bytes, segments, err := logSize(dir)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		runtime.GC()
		settleHeap()
		// A generator has two latencies a user waits for: until the first
		// row reaches the sink, and until the run is done. A run's size
		// follows its seed (device placement decides how many RSSI rows
		// there are), so the second is taken per million rows emitted.
		mrows := float64(want.total()) / 1e6
		var firstRow, perMRow, rate []float64
		start := time.Now()
		for rep := 0; !cfg.enough(rep, cfg.workload.minReps, time.Since(start)); rep++ {
			runtime.GC() // each run starts from a collected heap, so reps are alike
			g, err := generate(p, dir, false, false)
			if err != nil {
				return nil, err
			}
			same(g)
			firstRow = append(firstRow, ms(g.sink.firstTraj.Sub(g.sink.start)))
			perMRow = append(perMRow, ms(g.wall)/mrows)
			rate = append(rate, float64(want.total())/g.wall.Seconds())
		}
		res.Metrics["setup_s"] = median(seconds(setup))
		res.Metrics["ops_per_s"] = quietFast(rate)
		res.Metrics["p50_ms"] = quietSlow(firstRow)
		res.Metrics["tail_ms"] = quietSlow(perMRow)
		res.Metrics["peak_rss_mb"] = float64(peakRSS()) / mb
		res.Metrics["bytes_per_row"] = float64(bytes) / float64(want.traj+want.rssi)
		res.Notes["reps"] = len(rate)
		res.Notes["ops_per_s_reps"] = rate
		res.Notes["setup_s_passes"] = seconds(setup)
		res.Notes["rows"] = want.total()
		return res, nil
	}

	m := res.Metrics
	rec := newRecorder()
	runtime.GC()
	before := readGoCounters()
	g, err := generate(p, dir, false, true)
	if err != nil {
		return nil, err
	}
	before.since(m, want.total())
	same(g)
	st := g.stages(rec, 0)
	m["core.pre_s"] = st.pre.Seconds()
	m["trajectory.gen_s"] = st.traj.Seconds()
	m["rssi.gen_s"] = st.rssi.Seconds()
	m["positioning.run_s"] = st.positioning.Seconds()
	m["trajectory.rows"] = float64(want.traj)
	m["rssi.rows"] = float64(want.rssi)
	m["positioning.estimates"] = float64(want.estimates)
	m["colstore.write_s"] = g.sink.inSink.Seconds()
	m["colstore.bytes_written"] = float64(bytes)
	m["seglog.segments_sealed"] = float64(segments)
	m["core.retained_mb"] = float64(g.retained) / mb
	m["obs.trace_overhead_frac"] = ratio(g.wall.Seconds()-median(seconds(setup)), median(seconds(setup)))

	// The same run on one worker: what the parallel machinery buys.
	seq := p
	seq.Config.Parallelism = 1
	runtime.GC()
	g1, err := generate(seq, dir, false, true)
	if err != nil {
		return nil, err
	}
	same(g1)
	m["trajectory.speedup_p"] = ratio(g1.stages(rec, 1).traj.Seconds(), st.traj.Seconds())

	if err := rec.write(filepath.Join(cfg.outDir(), "trace-"+cfg.workload.name+".json"), cfg.workload.name, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// reopenCheck opens the log a generation run left and compares the sample
// count the serving layer reports with what the sink was given.
func reopenCheck(dir string, want int) error {
	ds, err := serve.Open(dir, serve.Config{})
	if err != nil {
		return fmt.Errorf("reopen generated log: %w", err)
	}
	defer ds.Close()
	info, err := ds.Info(false)
	if err != nil {
		return fmt.Errorf("info on generated log: %w", err)
	}
	if info.Samples != want {
		return fmt.Errorf("generated log reopens with %d samples, the sink was given %d", info.Samples, want)
	}
	return nil
}

// stageTimes are the pipeline's stages as the sink-call sequence delimits
// them: nothing before the first trajectory row is generation, RSSI rows
// only start once trajectories are done, and Estimates arrives after the
// positioning method ran.
type stageTimes struct{ pre, traj, rssi, positioning time.Duration }

// stages derives the stage durations of a timed run and records them as
// spans of request `run`.
func (g *generated) stages(rec *recorder, run int) stageTimes {
	s := g.sink
	end := s.start.Add(g.wall)
	trajEnd, rssiStart, rssiEnd := s.lastTraj, s.firstRSSI, s.lastRSSI
	if s.rssi == 0 { // no devices: the RSSI stage is empty
		rssiStart, rssiEnd = trajEnd, trajEnd
	}
	estAt := s.estAt
	if estAt.IsZero() {
		estAt = rssiEnd
	}
	root := rec.add("bench.generate", -1, run, s.start, end)
	rec.add("core.pre", root, run, s.start, s.firstTraj)
	rec.add("trajectory.gen", root, run, s.firstTraj, trajEnd)
	rec.add("rssi.gen", root, run, rssiStart, rssiEnd)
	rec.add("positioning.run", root, run, rssiEnd, estAt)
	rec.add("sink.close", root, run, estAt, end)
	return stageTimes{
		pre:         s.firstTraj.Sub(s.start),
		traj:        trajEnd.Sub(s.firstTraj),
		rssi:        rssiEnd.Sub(rssiStart),
		positioning: estAt.Sub(rssiEnd),
	}
}
