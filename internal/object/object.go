// Package object implements Vita's Moving Object Layer configuration (paper
// §2, §3.1): moving objects with lifespans, initial distribution models
// (uniform, crowd-outliers), Poisson arrivals of new objects, and moving
// patterns composed of intention, routing and behavior.
package object

import (
	"fmt"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/topo"
)

// Intention is what drives an object's movement (paper §3.1: destination
// model vs random-way model).
type Intention int

// Intentions.
const (
	// DestinationIntent objects move toward chosen destinations.
	DestinationIntent Intention = iota
	// RandomWayIntent objects wander to random nearby places.
	RandomWayIntent
)

// String implements fmt.Stringer.
func (i Intention) String() string {
	if i == RandomWayIntent {
		return "random-way"
	}
	return "destination"
}

// Behavior is how an object executes its movement (paper §3.1: "pre-defined
// mechanisms to configure details such as the change of speed, the stop
// during the moving").
type Behavior int

// Behaviors.
const (
	// ConstantWalk walks at a steady speed without stopping.
	ConstantWalk Behavior = iota
	// WalkStay alternates between "walking along the path to its
	// destination" and "staying at the destination or a location on path"
	// after random periods of time; here objects stay at their
	// destinations.
	WalkStay
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	if b == WalkStay {
		return "walk-stay"
	}
	return "constant-walk"
}

// Pattern bundles the three moving-pattern aspects of §3.1.
type Pattern struct {
	Intention Intention
	Routing   topo.Metric
	Behavior  Behavior
	// MinStay/MaxStay bound the random stay duration (seconds) of WalkStay.
	MinStay, MaxStay float64
}

// DefaultPattern returns a destination-driven walk-stay pattern.
func DefaultPattern() Pattern {
	return Pattern{
		Intention: DestinationIntent,
		Routing:   topo.MinDistance,
		Behavior:  WalkStay,
		MinStay:   10,
		MaxStay:   120,
	}
}

// Phase is the movement state of an object at an instant.
type Phase int

// Phases of an object's life.
const (
	PhaseWalking Phase = iota
	PhaseStaying
	PhaseDead
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseWalking:
		return "walking"
	case PhaseStaying:
		return "staying"
	default:
		return "dead"
	}
}

// Object is one indoor moving object.
type Object struct {
	ID       int
	Birth    float64 // simulation seconds
	Lifespan float64 // seconds; Death = Birth + Lifespan
	MaxSpeed float64 // m/s
	Pattern  Pattern

	// Dynamic state owned by the trajectory engine.
	Loc       model.Location
	Phase     Phase
	StayUntil float64
	// route progress
	Route    *topo.Route
	LegIndex int
	LegFrac  float64
	LegSpeed float64
}

// Death returns the simulation time at which the object disappears.
func (o *Object) Death() float64 { return o.Birth + o.Lifespan }

// Alive reports whether the object exists at time t.
func (o *Object) Alive(t float64) bool { return t >= o.Birth && t < o.Death() }

// Position returns the object's current coordinate.
func (o *Object) Position() geom.Point { return o.Loc.Point }

// Validate rejects impossible configurations.
func (o *Object) Validate() error {
	if o.Lifespan <= 0 {
		return fmt.Errorf("object %d: non-positive lifespan %.2f", o.ID, o.Lifespan)
	}
	if o.MaxSpeed <= 0 {
		return fmt.Errorf("object %d: non-positive max speed %.2f", o.ID, o.MaxSpeed)
	}
	return nil
}
