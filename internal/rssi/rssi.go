// Package rssi implements Vita's raw RSSI measurement generation (paper
// §3.2): a generic, flexible log-distance path loss model
//
//	rssi(dBm) = -10·n·log10(dt) + A + Nob + Nf
//
// where dt is the transmission distance, A the calibration RSSI at 1 m,
// Nob the noise caused by obstacles like walls and doors, and Nf the noise
// from signal fluctuation (temperature, humidity, ...). The obstacle term is
// computed from explicit line-of-sight wall crossings, realizing the paper's
// Figure 3(a) example where a device behind walls measures a weaker signal
// than one at the same distance with clear line of sight.
package rssi

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/rng"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// Measurement is one raw RSSI record (o_id, d_id, rssi) with its timestamp
// (paper §4.2).
type Measurement struct {
	ObjID    int
	DeviceID string
	RSSI     float64
	T        float64
}

// PathLossModel holds the user-definable variables of the RSSI formula.
type PathLossModel struct {
	// Exponent is the path loss exponent n; device-specific exponents
	// override it when positive on the device's properties.
	Exponent float64
	// CalibrationA is the default RSSI at 1 m; device properties override it
	// when non-zero.
	CalibrationA float64
	// WallLoss is the dB lost per wall crossed (the Nob term is
	// -WallLoss × crossings).
	WallLoss float64
	// FluctuationSigma is the standard deviation of the Gaussian Nf term.
	FluctuationSigma float64
	// UseLineOfSight enables the wall-crossing obstacle term; when false a
	// constant HalfObstaclePenalty applies instead (the baseline of
	// experiments.AblationLoS).
	UseLineOfSight bool
	// ConstantObstaclePenalty replaces the LoS term when UseLineOfSight is
	// false.
	ConstantObstaclePenalty float64
}

// DefaultPathLossModel returns the paper's quick-customization defaults.
func DefaultPathLossModel() PathLossModel {
	return PathLossModel{
		Exponent:         2.2,
		CalibrationA:     -38,
		WallLoss:         6,
		FluctuationSigma: 2,
		UseLineOfSight:   true,
	}
}

// Validate rejects impossible configurations.
func (m PathLossModel) Validate() error {
	if m.Exponent <= 0 {
		return fmt.Errorf("rssi: non-positive path loss exponent")
	}
	if m.FluctuationSigma < 0 {
		return fmt.Errorf("rssi: negative fluctuation sigma")
	}
	if m.WallLoss < 0 {
		return fmt.Errorf("rssi: negative wall loss")
	}
	return nil
}

// At computes one RSSI value for an object at distance dt meters with the
// given number of wall crossings. r supplies the fluctuation noise; a nil r
// yields the noise-free expectation.
func (m PathLossModel) At(dt float64, crossings int, dev *device.Device, r *rng.Rand) float64 {
	if dt < 1 {
		dt = 1 // the model is calibrated at 1 m; clamp inside
	}
	n := m.Exponent
	if dev != nil && dev.Props.PathLossExponent > 0 {
		n = dev.Props.PathLossExponent
	}
	a := m.CalibrationA
	if dev != nil && dev.Props.CalibrationA != 0 {
		a = dev.Props.CalibrationA
	}
	v := -10*n*math.Log10(dt) + a
	if m.UseLineOfSight {
		v -= m.WallLoss * float64(crossings)
	} else {
		v -= m.ConstantObstaclePenalty
	}
	if r != nil && m.FluctuationSigma > 0 {
		v += r.Normal(0, m.FluctuationSigma)
	}
	return v
}

// InvertDistance converts an RSSI value back to an estimated transmission
// distance, ignoring the noise terms — the default RSSI conversion function
// offered to trilateration users (paper §3.3: "a default function is also
// provided").
func (m PathLossModel) InvertDistance(rssiVal float64, dev *device.Device) float64 {
	n := m.Exponent
	if dev != nil && dev.Props.PathLossExponent > 0 {
		n = dev.Props.PathLossExponent
	}
	a := m.CalibrationA
	if dev != nil && dev.Props.CalibrationA != 0 {
		a = dev.Props.CalibrationA
	}
	return math.Pow(10, (a-rssiVal)/(10*n))
}

// Config configures measurement generation.
type Config struct {
	Model PathLossModel
	// SampleInterval overrides every device's own sampling interval when
	// positive — the paper exposes a dedicated sampling frequency for raw
	// RSSI generation (§2: RSSI Measurement Controller).
	SampleInterval float64
	// Parallelism is the number of workers that claim object trajectories to
	// replay, the caller of Generate included. 0 selects GOMAXPROCS; 1
	// replays every object on the caller's goroutine. Any value produces
	// identical measurements for the same rng.
	Parallelism int
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// Generator produces raw RSSI measurements by replaying raw trajectories
// against the deployed devices.
type Generator struct {
	topo    *topo.Topology
	devices []*device.Device
	cfg     Config
}

// NewGenerator builds a generator for the given deployment.
func NewGenerator(t *topo.Topology, devs []*device.Device, cfg Config) (*Generator, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("rssi: negative parallelism")
	}
	return &Generator{topo: t, devices: devs, cfg: cfg}, nil
}

// ObjectDone is a per-object completion step. Generate calls it on the
// worker that replayed object id, with every measurement of that object in
// emission order, so per-object work that needs the whole object (a
// positioning method's windows, say) runs in parallel with the replay of
// other objects. The flush function it returns, when non-nil, runs right
// after the object's measurements were emitted: in ascending object ID and
// never concurrently with emit or another flush. done must not modify ms
// (the measurements are emitted after it returns), and neither it nor its
// flush may keep ms past the flush: the buffer is reused for a later object.
type ObjectDone func(id int, ms []Measurement) (flush func())

// Generate replays the trajectories — one time-ordered series per object,
// in strictly ascending object ID, as trajectory.Engine.Run returns its
// slots; empty series are skipped — and emits measurements at each device's
// sampling instants. trajectory.Between places the object at each instant
// from the two samples around it. The series are only read, on the
// workers, while Generate runs.
//
// r keys the fluctuation noise: each object's replay draws from a stream
// derived deterministically from (r, object ID), so the output is
// byte-identical for any worker count. The caller and cfg.Parallelism-1
// goroutines claim objects one at a time, in order, from a shared counter;
// a worker claims object i only while i < (objects flushed) + 2 × workers,
// which bounds the measurements buffered ahead of the ordered flush.
//
// emit receives each object's measurements as one batch (device by device,
// each device's in time order), in ascending object ID, never concurrently,
// and must not keep the slice. Whichever worker completes the lowest
// unflushed object flushes it and every ready object after it, outside the
// lock the claims use; a worker that finds a flush in progress leaves its
// object to that flush and claims the next. Objects without measurements are
// not emitted. A non-nil done runs once per object that has a trajectory;
// see ObjectDone. When emit returns an error nothing more is claimed or
// emitted, and Generate returns the error with the count emitted before it.
func (g *Generator) Generate(series [][]trajectory.Sample, r *rng.Rand, emit func([]Measurement) error, done ObjectDone) (int, error) {
	if emit == nil {
		return 0, fmt.Errorf("rssi: nil emit callback")
	}
	trajs := make([][]trajectory.Sample, 0, len(series))
	for _, tr := range series {
		if len(tr) == 0 {
			continue
		}
		if k := len(trajs); k > 0 && tr[0].ObjID <= trajs[k-1][0].ObjID {
			return 0, fmt.Errorf("rssi: series not in ascending object order (object %d after %d)", tr[0].ObjID, trajs[k-1][0].ObjID)
		}
		trajs = append(trajs, tr)
	}
	streams := r.Streams()
	workers := min(g.cfg.workers(), len(trajs))
	window := 2 * workers

	type result struct {
		ms    []Measurement
		flush func()
		ready bool
	}
	results := make([]result, len(trajs))
	var (
		mu               sync.Mutex
		claimable        = sync.NewCond(&mu)
		claimed, flushed int
		flushing         bool
		free             [][]Measurement // buffers of flushed objects
		count            int
		err              error
	)
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for claimed < len(trajs) && claimed >= flushed+window && err == nil {
				claimable.Wait()
			}
			if claimed >= len(trajs) || err != nil {
				return
			}
			i := claimed
			claimed++
			var buf []Measurement
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			}
			mu.Unlock()

			id := trajs[i][0].ObjID
			res := result{ms: g.generateForObject(buf, id, trajs[i], streams.Stream(uint64(id))), ready: true}
			if done != nil {
				res.flush = done(id, res.ms)
			}

			mu.Lock()
			results[i] = res
			if flushing {
				continue // the flush in progress emits it in turn
			}
			flushing = true
			for flushed < len(trajs) && results[flushed].ready && err == nil {
				res := results[flushed]
				mu.Unlock()
				var emitErr error
				if len(res.ms) > 0 {
					emitErr = emit(res.ms)
				}
				if emitErr == nil && res.flush != nil {
					res.flush()
				}
				mu.Lock()
				if emitErr != nil {
					err = emitErr
				} else {
					count += len(res.ms)
				}
				free = append(free, res.ms[:0])
				results[flushed] = result{}
				flushed++
				claimable.Broadcast()
			}
			flushing = false
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return count, err
}

// generateForObject replays one object's (non-empty) trajectory against
// every device and returns its measurements, device by device, appended to
// ms.
func (g *Generator) generateForObject(ms []Measurement, id int, traj []trajectory.Sample, r *rng.Rand) []Measurement {
	for _, dev := range g.devices {
		interval := dev.Props.SampleInterval
		if g.cfg.SampleInterval > 0 {
			interval = g.cfg.SampleInterval
		}
		if interval <= 0 {
			interval = 1
		}
		start := traj[0].T
		end := traj[len(traj)-1].T
		// The wall count is a pure function of (floor, device, position) and
		// the floor is the device's, so a staying object's repeated position
		// reuses the count of the device's previous in-range instant.
		var lastPos geom.Point
		lastCrossings := -1
		// Sampling instants sit on the global clock's k·interval grid. Each
		// is computed from its integer k, never accumulated, so every object
		// a device hears at one instant carries the same T.
		seg := 0
		for k := math.Ceil(start / interval); k*interval <= end+geom.Eps; k++ {
			t := k * interval
			// Advance to the segment containing t.
			for seg+1 < len(traj) && traj[seg+1].T < t {
				seg++
			}
			// The last sample stands for the instants up to end+Eps.
			pos, floor := traj[seg].Loc.Point, traj[seg].Loc.Floor
			if seg+1 < len(traj) {
				pos, floor = trajectory.Between(&traj[seg], &traj[seg+1], t)
			}
			if floor != dev.Floor {
				continue
			}
			dist := dev.Position.Dist(pos)
			if dist > dev.Props.DetectionRange {
				continue
			}
			crossings := 0
			if g.cfg.Model.UseLineOfSight {
				if lastCrossings < 0 || pos != lastPos {
					lastPos, lastCrossings = pos, g.topo.Crossings(floor, dev.Position, pos)
				}
				crossings = lastCrossings
			}
			ms = append(ms, Measurement{
				ObjID:    id,
				DeviceID: dev.ID,
				RSSI:     g.cfg.Model.At(dist, crossings, dev, r),
				T:        t,
			})
		}
	}
	return ms
}
