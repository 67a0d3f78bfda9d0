// Package trajectory implements Vita's raw-trajectory generation: a
// discrete-time movement engine that walks objects along routes through the
// host environment and samples their ground-truth positions at a
// configurable frequency (paper §1, §2, §3.1). The raw trajectory is the
// "ground truth" preserved at fine temporal granularity, against which the
// positioning data generated by the Positioning Layer can be evaluated.
//
// Generation is data-parallel: the full object roster (initial population
// plus Poisson arrivals) is scheduled up-front, each object is simulated
// independently on its own derived deterministic RNG stream, and each
// object's finished series is stored whole in its slot. When a time-ordered
// stream is wanted, Merge sweeps the slots once after the run. Output is
// byte-identical for any Parallelism setting.
package trajectory

import (
	"fmt"
	"math"
	"runtime"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/object"
	"vita/internal/rng"
	"vita/internal/topo"
)

// Sample is one raw trajectory record (o_id, loc, t) — paper §4.2.
type Sample struct {
	ObjID int
	Loc   model.Location
	T     float64
}

// Config configures one generation run.
type Config struct {
	// Duration is the simulated period in seconds.
	Duration float64
	// Tick is the integration step in seconds (default 0.25).
	Tick float64
	// SampleInterval is the ground-truth sampling period in seconds; the
	// paper lets users tune this so that "ground truth movements are
	// preserved to an arbitrarily detailed degree".
	SampleInterval float64
	// Parallelism is the number of workers that claim objects to simulate,
	// the caller of Run included. 0 selects GOMAXPROCS; 1 simulates every
	// object on the caller's goroutine. Any value produces identical output
	// for the same seed.
	Parallelism int
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trajectory: non-positive duration")
	}
	if c.Tick < 0 || c.SampleInterval < 0 {
		return fmt.Errorf("trajectory: negative tick or sample interval")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("trajectory: negative parallelism")
	}
	return nil
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// Stats summarizes one run.
type Stats struct {
	Spawned       int
	Died          int
	Samples       int
	TotalDistance float64
	RoutesPlanned int
	RouteFailures int
}

// add accumulates per-object stats; called in object order so float sums are
// deterministic.
func (s *Stats) add(o Stats) {
	s.Spawned += o.Spawned
	s.Died += o.Died
	s.Samples += o.Samples
	s.TotalDistance += o.TotalDistance
	s.RoutesPlanned += o.RoutesPlanned
	s.RouteFailures += o.RouteFailures
}

// Engine advances the moving-object population and emits trajectory samples.
// The engine itself is read-only during simulation; all mutable per-object
// state lives in objectSim, so objects can be simulated concurrently.
type Engine struct {
	topo    *topo.Topology
	spawner *object.Spawner
	cfg     Config
	rnd     *rng.Rand

	// destAreas caches each destination candidate's weight, its area, by
	// partition number (topo.Partitions), so route planning does not
	// recompute them per pick.
	destAreas []float64

	stats Stats
}

// NewEngine builds an engine. The rng drives all randomness of the run: the
// spawn schedule is drawn from it directly and each object's movement from a
// stream deterministically derived from it, so a seed fully determines the
// output regardless of Parallelism.
func NewEngine(t *topo.Topology, sp *object.Spawner, cfg Config, r *rng.Rand) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 0.25
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 1.0
	}
	e := &Engine{topo: t, spawner: sp, cfg: cfg, rnd: r}
	for _, p := range t.Partitions() {
		e.destAreas = append(e.destAreas, p.Polygon.Area())
	}
	return e, nil
}

// objectSim is the mutable simulation state of one object: the object
// itself, its derived RNG stream, and its share of the run statistics. Each
// objectSim is owned by exactly one worker goroutine.
type objectSim struct {
	eng *Engine
	o   *object.Object
	rnd *rng.Rand
	st  Stats
}

// run simulates the object over the full duration on the global tick grid
// and returns its ground-truth samples in time order. The loop reproduces
// the semantics of simulating all objects jointly: the object advances at
// every tick it is alive, dies once the clock passes its death time, and is
// sampled at every multiple of SampleInterval it is alive for. Both instants are computed
// from integer counters, never accumulated, so every sample sits exactly on
// the k·SampleInterval grid whatever the tick and interval.
func (s *objectSim) run() []Sample {
	e := s.eng
	o := s.o
	// At most one sample per interval of the object's life, plus the
	// instants at both ends.
	life := math.Min(o.Death(), e.cfg.Duration) - o.Birth
	out := make([]Sample, 0, max(0, int(life/e.cfg.SampleInterval))+2)
	k := 0
	for i := 0; ; i++ {
		t := float64(i) * e.cfg.Tick
		if t > e.cfg.Duration+geom.Eps {
			break
		}
		if o.Phase != object.PhaseDead {
			if !o.Alive(t) {
				if t >= o.Death() {
					o.Phase = object.PhaseDead
					s.st.Died++
				}
			} else {
				s.advance(t, e.cfg.Tick)
			}
		}
		for next := float64(k) * e.cfg.SampleInterval; t >= next-geom.Eps; next = float64(k) * e.cfg.SampleInterval {
			if o.Alive(next) && o.Phase != object.PhaseDead {
				out = append(out, Sample{ObjID: o.ID, Loc: o.Loc, T: next})
				s.st.Samples++
			}
			k++
		}
		if o.Phase == object.PhaseDead {
			break // no further movement or samples possible
		}
	}
	return out
}

// advance moves the object by dt seconds.
func (s *objectSim) advance(t, dt float64) {
	o := s.o
	switch o.Phase {
	case object.PhaseStaying:
		if t >= o.StayUntil {
			// Resume any stored route; otherwise a new one is planned below
			// on the next walking tick.
			o.Phase = object.PhaseWalking
		}
		return
	case object.PhaseWalking:
		if o.Route == nil {
			if !s.planRoute() {
				// Nowhere to go this tick; brief stay and retry.
				o.Phase = object.PhaseStaying
				o.StayUntil = t + 1
				return
			}
		}
		s.walk(t, dt)
	}
}

// speedJitter is the relative per-leg speed variation: each leg walks at a
// speed drawn uniformly from [1−speedJitter, 1] × the object's MaxSpeed.
const speedJitter = 0.2

// planRoute picks a destination per the object's intention and computes the
// route. It reports whether a usable route was found.
func (s *objectSim) planRoute() bool {
	o := s.o
	dest, ok := s.pickDestination()
	if !ok {
		return false
	}
	r, err := s.eng.topo.Route(o.Loc, dest, o.Pattern.Routing)
	s.st.RoutesPlanned++
	if err != nil || len(r.Waypoints) < 2 {
		s.st.RouteFailures++
		return false
	}
	o.Route = r
	o.LegIndex = 0
	o.LegFrac = 0
	o.LegSpeed = o.MaxSpeed * s.rnd.Range(1-speedJitter, 1)
	return true
}

// pickDestination chooses where the object heads next.
func (s *objectSim) pickDestination() (model.Location, bool) {
	e := s.eng
	o := s.o
	b := e.topo.B
	switch o.Pattern.Intention {
	case object.RandomWayIntent:
		// Move through a random door of the current partition.
		n, ok := e.topo.PartitionNumber(o.Loc.Floor, o.Loc.Partition)
		if !ok {
			return model.Location{}, false
		}
		exits := e.topo.Exits(n)
		if len(exits) == 0 {
			return model.Location{}, false
		}
		p := e.topo.Partitions()[exits[s.rnd.Intn(len(exits))]]
		pt := topo.RandomPointIn(p, s.rnd.Float64)
		return model.At(b.ID, p.Floor, p.ID, pt), true
	default: // DestinationIntent
		all := e.topo.Partitions()
		parts := make([]*model.Partition, 0, len(all))
		weights := make([]float64, 0, len(all))
		for i, p := range all {
			if p.Floor == o.Loc.Floor && p.ID == o.Loc.Partition {
				continue
			}
			parts = append(parts, p)
			weights = append(weights, e.destAreas[i])
		}
		if len(parts) == 0 {
			return model.Location{}, false
		}
		p := parts[s.rnd.WeightedIndex(weights)]
		pt := topo.RandomPointIn(p, s.rnd.Float64)
		return model.At(b.ID, p.Floor, p.ID, pt), true
	}
}

// walk advances the object along its route by up to speed*dt meters,
// spanning multiple legs when needed.
func (s *objectSim) walk(t, dt float64) {
	o := s.o
	budget := dt
	for budget > 0 && o.Route != nil {
		wps := o.Route.Waypoints
		if o.LegIndex >= len(wps)-1 {
			s.arrive(t)
			return
		}
		a, b := wps[o.LegIndex], wps[o.LegIndex+1]
		stair := b.Stair
		legLen, legDur := legCost(b, o.LegSpeed)
		if legLen < geom.Eps {
			o.LegIndex++
			o.LegFrac = 0
			continue
		}
		remainDur := (1 - o.LegFrac) * legDur
		if budget >= remainDur {
			budget -= remainDur
			s.st.TotalDistance += (1 - o.LegFrac) * legLen
			o.LegIndex++
			o.LegFrac = 0
			o.Loc = model.At(o.Loc.Building, b.Floor, b.Partition, b.Point)
			continue
		}
		adv := budget / legDur
		s.st.TotalDistance += adv * legLen
		o.LegFrac += adv
		budget = 0
		if stair {
			// Mid-stair: stay attributed to the origin floor and partition.
			o.Loc = model.At(o.Loc.Building, a.Floor, a.Partition, a.Point.Lerp(b.Point, o.LegFrac))
		} else {
			o.Loc = model.At(o.Loc.Building, b.Floor, b.Partition, a.Point.Lerp(b.Point, o.LegFrac))
		}
	}
}

// legCost returns the length (m) and duration (s) of the hop onto b at
// walkSpeed. Stairs take their configured traversal time regardless of
// walking speed, as the routing graph's stair edges do.
func legCost(b topo.Waypoint, walkSpeed float64) (float64, float64) {
	if b.Stair {
		if b.TravelTime > 0 {
			return b.Length, b.TravelTime
		}
		return b.Length, b.Length / max(walkSpeed*0.6, 0.3)
	}
	if walkSpeed <= 0 {
		walkSpeed = 1
	}
	return b.Length, b.Length / walkSpeed
}

// arrive handles route completion per the behavior.
func (s *objectSim) arrive(t float64) {
	o := s.o
	last := o.Route.Waypoints[len(o.Route.Waypoints)-1]
	o.Loc = model.At(o.Loc.Building, last.Floor, last.Partition, last.Point)
	o.Route = nil
	o.LegIndex = 0
	o.LegFrac = 0
	switch o.Pattern.Behavior {
	case object.WalkStay:
		minS, maxS := o.Pattern.MinStay, o.Pattern.MaxStay
		if maxS < minS {
			maxS = minS
		}
		if maxS <= 0 {
			minS, maxS = 5, 30
		}
		o.Phase = object.PhaseStaying
		o.StayUntil = t + s.rnd.Range(minS, maxS)
	default:
		o.Phase = object.PhaseWalking
	}
}
