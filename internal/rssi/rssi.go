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
	"sort"
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
	// Parallelism is the number of workers object trajectories are sharded
	// across. 0 selects GOMAXPROCS; 1 runs fully sequentially. Any value
	// produces identical measurements for the same rng.
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
	// byFloor groups devices for fast per-sample lookup.
	byFloor map[int][]*device.Device
}

// NewGenerator builds a generator for the given deployment.
func NewGenerator(t *topo.Topology, devs []*device.Device, cfg Config) (*Generator, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("rssi: negative parallelism")
	}
	g := &Generator{topo: t, devices: devs, cfg: cfg, byFloor: make(map[int][]*device.Device)}
	for _, d := range devs {
		g.byFloor[d.Floor] = append(g.byFloor[d.Floor], d)
	}
	return g, nil
}

// Generate replays the trajectory samples (which must be in time order per
// object) and emits measurements at each device's sampling instants. Linear
// interpolation between consecutive same-floor samples reconstructs the
// object position at the device's sampling times.
//
// r keys the fluctuation noise: each object's replay draws from a stream
// derived deterministically from (r, object ID), and objects are sharded
// across cfg.Parallelism workers. Output is byte-identical for any worker
// count. Measurements are emitted grouped by ascending object ID (time
// order per object and device within each group); emit is never invoked
// concurrently.
func (g *Generator) Generate(samples []trajectory.Sample, r *rng.Rand, emit func(Measurement)) (int, error) {
	if emit == nil {
		return 0, fmt.Errorf("rssi: nil emit callback")
	}
	byObj := groupByObject(samples)
	// Deterministic object order.
	ids := make([]int, 0, len(byObj))
	for id := range byObj {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	streams := r.Streams()

	if workers := g.cfg.workers(); workers > 1 && len(ids) > 1 {
		// Shard trajectories across workers and emit in object-ID order so
		// parallel output matches the sequential path. Emission streams: as
		// soon as the contiguous prefix of objects is done, its buffered
		// measurements are flushed and released. The transient buffer holds
		// only objects finished ahead of the lowest unfinished ID — small in
		// the typical similar-sized-trajectory case, though a pathologically
		// long first object can stall the flush behind it.
		results := make([][]Measurement, len(ids))
		done := make([]bool, len(ids))
		var (
			mu    sync.Mutex
			next  int
			count int
			wg    sync.WaitGroup
		)
		finish := func(i int, ms []Measurement) {
			mu.Lock()
			defer mu.Unlock()
			results[i] = ms
			done[i] = true
			for next < len(ids) && done[next] {
				for _, m := range results[next] {
					emit(m)
				}
				count += len(results[next])
				results[next] = nil
				next++
			}
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ids); i += workers {
					id := ids[i]
					var ms []Measurement
					g.generateForObject(id, byObj[id], streams.Stream(uint64(id)),
						func(m Measurement) { ms = append(ms, m) })
					finish(i, ms)
				}
			}(w)
		}
		wg.Wait()
		return count, nil
	}

	count := 0
	for _, id := range ids {
		count += g.generateForObject(id, byObj[id], streams.Stream(uint64(id)), emit)
	}
	return count, nil
}

func (g *Generator) generateForObject(id int, traj []trajectory.Sample, r *rng.Rand, emit func(Measurement)) int {
	if len(traj) == 0 {
		return 0
	}
	count := 0
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
		// Align device sampling instants to the global clock.
		t0 := math.Ceil(start/interval) * interval
		seg := 0
		for t := t0; t <= end+geom.Eps; t += interval {
			// Advance to the segment containing t.
			for seg+1 < len(traj) && traj[seg+1].T < t {
				seg++
			}
			pos, floor, ok := interpolate(traj, seg, t)
			if !ok || floor != dev.Floor {
				continue
			}
			dist := dev.Position.Dist(pos)
			if dist > dev.Props.DetectionRange {
				continue
			}
			crossings := 0
			if g.cfg.Model.UseLineOfSight {
				crossings = g.topo.Crossings(floor, dev.Position, pos)
			}
			emit(Measurement{
				ObjID:    id,
				DeviceID: dev.ID,
				RSSI:     g.cfg.Model.At(dist, crossings, dev, r),
				T:        t,
			})
			count++
		}
	}
	return count
}

// interpolate returns the object position at time t from the trajectory
// segment starting at index seg. It fails across floor changes.
func interpolate(traj []trajectory.Sample, seg int, t float64) (geom.Point, int, bool) {
	a := traj[seg]
	if seg+1 >= len(traj) {
		if math.Abs(a.T-t) <= 1.0 {
			return a.Loc.Point, a.Loc.Floor, true
		}
		return geom.Point{}, 0, false
	}
	b := traj[seg+1]
	if t < a.T-geom.Eps || t > b.T+geom.Eps {
		return geom.Point{}, 0, false
	}
	if a.Loc.Floor != b.Loc.Floor {
		// Mid-staircase; attribute to the nearer endpoint's floor.
		if t-a.T <= b.T-t {
			return a.Loc.Point, a.Loc.Floor, true
		}
		return b.Loc.Point, b.Loc.Floor, true
	}
	if b.T-a.T < geom.Eps {
		return a.Loc.Point, a.Loc.Floor, true
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.Loc.Point.Lerp(b.Loc.Point, frac), a.Loc.Floor, true
}

func groupByObject(samples []trajectory.Sample) map[int][]trajectory.Sample {
	out := make(map[int][]trajectory.Sample)
	for _, s := range samples {
		out[s.ObjID] = append(out[s.ObjID], s)
	}
	return out
}
