// Package query evaluates standing (continuous) range queries over streamed
// trajectory samples. Samples arrive one at a time — straight off the
// trajectory engine's emit callback or a replay of a stored dataset — and
// each standing query is evaluated incrementally: only the delta for the
// sampled object is recomputed, and subscribers see Enter/Move/Exit
// transitions rather than full result sets. Offline questions over a stored
// dataset (range, kNN, density, trajectory, dwell) are answered by the plans
// behind internal/serve's Dataset.
package query

import (
	"maps"
	"slices"
	"sync"

	"vita/internal/geom"
	"vita/internal/trajectory"
)

// EventKind classifies a continuous-query transition.
type EventKind int

const (
	// Enter fires when an object's newest sample moves it into the query
	// region.
	Enter EventKind = iota
	// Move fires when an object already in the region reports a new sample
	// still inside it.
	Move
	// Exit fires when an object previously in the region reports a sample
	// outside it (or on another floor).
	Exit
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Move:
		return "move"
	case Exit:
		return "exit"
	}
	return "unknown"
}

// Event is one continuous-query notification.
type Event struct {
	Kind EventKind
	// Sample is the sample that triggered the transition.
	Sample trajectory.Sample
}

// Subscription is one standing range query registered with a
// ContinuousEngine.
type Subscription struct {
	eng    *ContinuousEngine
	id     int
	floor  int
	box    geom.BBox
	fn     func(Event)
	inside map[int]trajectory.Sample // objID -> last sample inside the region
}

// Inside returns the object IDs currently inside the query region, sorted.
func (s *Subscription) Inside() []int {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return slices.Sorted(maps.Keys(s.inside))
}

// ContinuousEngine evaluates standing range queries over a stream of
// trajectory samples. It is safe for concurrent Feed/Subscribe calls;
// callbacks run synchronously inside Feed.
type ContinuousEngine struct {
	mu     sync.Mutex
	nextID int
	subs   map[int]*Subscription
}

// NewContinuousEngine returns an engine with no subscriptions.
func NewContinuousEngine() *ContinuousEngine {
	return &ContinuousEngine{subs: make(map[int]*Subscription)}
}

// Subscribe registers a standing range query over floor × box; fn is invoked
// for every Enter/Move/Exit transition and must not call back into the
// engine. A negative floor matches all floors.
func (e *ContinuousEngine) Subscribe(floor int, box geom.BBox, fn func(Event)) *Subscription {
	e.mu.Lock()
	defer e.mu.Unlock()
	sub := &Subscription{
		eng:    e,
		id:     e.nextID,
		floor:  floor,
		box:    box,
		fn:     fn,
		inside: make(map[int]trajectory.Sample),
	}
	e.nextID++
	e.subs[sub.id] = sub
	return sub
}

// Unsubscribe removes a standing query; its callback never fires again.
func (e *ContinuousEngine) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	e.mu.Lock()
	delete(e.subs, sub.id)
	e.mu.Unlock()
}

// Feed advances every standing query with one sample, firing transition
// callbacks synchronously. Samples should arrive in nondecreasing time order
// per object (the order the trajectory engine emits them).
func (e *ContinuousEngine) Feed(s trajectory.Sample) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sub := range e.subs {
		match := (sub.floor < 0 || s.Loc.Floor == sub.floor) &&
			s.Loc.HasPoint && sub.box.Contains(s.Loc.Point)
		_, was := sub.inside[s.ObjID]
		switch {
		case match && !was:
			sub.inside[s.ObjID] = s
			sub.fn(Event{Kind: Enter, Sample: s})
		case match && was:
			sub.inside[s.ObjID] = s
			sub.fn(Event{Kind: Move, Sample: s})
		case !match && was:
			delete(sub.inside, s.ObjID)
			sub.fn(Event{Kind: Exit, Sample: s})
		}
	}
}

// FeedAll replays a batch of samples through Feed in slice order.
func (e *ContinuousEngine) FeedAll(samples []trajectory.Sample) {
	for _, s := range samples {
		e.Feed(s)
	}
}
