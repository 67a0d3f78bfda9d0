package object

import (
	"fmt"

	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/topo"
)

// SpawnConfig configures object generation (paper §2: "number, maximum
// speed, moving pattern, and lifespan"; §3.1: lifespan between user-specified
// bounds plus Poisson arrivals of new objects at configured emerging
// locations).
type SpawnConfig struct {
	// InitialCount objects exist at t=0.
	InitialCount int
	// MinLifespan/MaxLifespan bound each object's random lifespan (seconds).
	MinLifespan, MaxLifespan float64
	// MaxSpeed is the upper bound of object speed (m/s); per-object max
	// speeds are drawn uniformly from [0.5*MaxSpeed, MaxSpeed].
	MaxSpeed float64
	// Pattern is the moving pattern applied to all spawned objects.
	Pattern Pattern
	// Distribution places the initial population.
	Distribution Distribution

	// ArrivalRate is the Poisson rate (objects/second) of new objects during
	// the generation period; 0 disables arrivals.
	ArrivalRate float64
	// EmergingPartitions are where new objects appear (e.g. building
	// entrances). Empty = use Distribution for arrivals too.
	EmergingPartitions []string
}

// Validate rejects impossible configurations.
func (c SpawnConfig) Validate() error {
	if c.InitialCount < 0 {
		return fmt.Errorf("object: negative initial count")
	}
	if c.MinLifespan <= 0 || c.MaxLifespan < c.MinLifespan {
		return fmt.Errorf("object: invalid lifespan bounds [%.1f, %.1f]", c.MinLifespan, c.MaxLifespan)
	}
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("object: non-positive max speed")
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("object: negative arrival rate")
	}
	return nil
}

// Spawner creates objects: the initial population and Poisson arrivals.
type Spawner struct {
	cfg    SpawnConfig
	topo   *topo.Topology
	nextID int
	// nextArrival is the simulation time of the next Poisson arrival.
	nextArrival float64
}

// NewSpawner returns a Spawner for the building topology.
func NewSpawner(t *topo.Topology, cfg SpawnConfig) (*Spawner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Distribution == nil {
		cfg.Distribution = Uniform{}
	}
	return &Spawner{cfg: cfg, topo: t, nextID: 1}, nil
}

// Initial creates the t=0 population.
func (s *Spawner) Initial(r *rng.Rand) ([]*Object, error) {
	out := make([]*Object, 0, s.cfg.InitialCount)
	for i := 0; i < s.cfg.InitialCount; i++ {
		loc, err := s.cfg.Distribution.Place(s.topo, r)
		if err != nil {
			return nil, err
		}
		out = append(out, s.newObject(0, loc, r))
	}
	if s.cfg.ArrivalRate > 0 {
		s.nextArrival = r.ExpFloat64(s.cfg.ArrivalRate)
	}
	return out, nil
}

// ScheduleUntil materializes the full population of a run up-front: the t=0
// population followed by every Poisson arrival in (0, duration]. Because the
// arrival process is a chain of exponential inter-arrival draws, the object
// set (IDs, birth times, lifespans, speeds, initial locations) is identical
// to what incremental ArrivalsUntil calls over the same period would
// produce. Knowing the whole roster before simulation starts is what lets
// the trajectory engine shard objects across workers and merge their sample
// streams in time order.
func (s *Spawner) ScheduleUntil(duration float64, r *rng.Rand) ([]*Object, error) {
	out, err := s.Initial(r)
	if err != nil {
		return nil, err
	}
	arrivals, err := s.ArrivalsUntil(0, duration, r)
	if err != nil {
		return nil, err
	}
	return append(out, arrivals...), nil
}

// ArrivalsUntil creates the objects arriving in (prev, now] per the Poisson
// process.
func (s *Spawner) ArrivalsUntil(prev, now float64, r *rng.Rand) ([]*Object, error) {
	if s.cfg.ArrivalRate <= 0 {
		return nil, nil
	}
	var out []*Object
	for s.nextArrival <= now {
		t := s.nextArrival
		loc, err := s.emergingLocation(r)
		if err != nil {
			return nil, err
		}
		out = append(out, s.newObject(t, loc, r))
		s.nextArrival = t + r.ExpFloat64(s.cfg.ArrivalRate)
	}
	return out, nil
}

func (s *Spawner) emergingLocation(r *rng.Rand) (model.Location, error) {
	if len(s.cfg.EmergingPartitions) == 0 {
		return s.cfg.Distribution.Place(s.topo, r)
	}
	id := s.cfg.EmergingPartitions[r.Intn(len(s.cfg.EmergingPartitions))]
	// Accept decomposed children of the configured partition.
	var cands []*model.Partition
	for _, p := range s.topo.Partitions() {
		if p.ID == id || p.Parent == id {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return model.Location{}, fmt.Errorf("object: emerging partition %q not found", id)
	}
	p := cands[r.Intn(len(cands))]
	pt := topo.RandomPointIn(p, r.Float64)
	return model.At(s.topo.B.ID, p.Floor, p.ID, pt), nil
}

func (s *Spawner) newObject(birth float64, loc model.Location, r *rng.Rand) *Object {
	o := &Object{
		ID:       s.nextID,
		Birth:    birth,
		Lifespan: r.Range(s.cfg.MinLifespan, s.cfg.MaxLifespan),
		MaxSpeed: r.Range(0.5*s.cfg.MaxSpeed, s.cfg.MaxSpeed),
		Pattern:  s.cfg.Pattern,
		Loc:      loc,
		Phase:    PhaseWalking,
	}
	s.nextID++
	return o
}
