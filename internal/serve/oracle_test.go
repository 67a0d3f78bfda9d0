package serve

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// oracle answers every operator by brute force over a dataset's rows. It
// shares nothing with the served plans but the interpolation arithmetic
// (trajectory.InterpolateAt): a linear filter over the rows stable-sorted by
// (object, time), so rows that tie on both keep their input order; each
// object's series bracketed by binary search for the instant queries; a
// min/max fold for Info; a ContinuousEngine subscription fed the rows in
// (time, object) order for Watch.
type oracle struct {
	rows   []trajectory.Sample // stable-sorted by (object, time)
	maxGap float64
}

// newOracle holds rows as a dataset's file holds them: their order decides
// how (object, time) ties come out.
func newOracle(rows []trajectory.Sample, maxGap float64) *oracle {
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, func(a, b trajectory.Sample) int {
		return cmp.Or(cmp.Compare(a.ObjID, b.ObjID), cmp.Compare(a.T, b.T))
	})
	return &oracle{rows: sorted, maxGap: maxGap}
}

// filter returns the rows keep accepts, in (object, time) order; nil when
// none does.
func (o *oracle) filter(keep func(trajectory.Sample) bool) []trajectory.Sample {
	var out []trajectory.Sample
	for _, s := range o.rows {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// answer answers a generated request in the response type the dataset
// answers with (zero Stats, no Trace).
func (o *oracle) answer(req diffRequest) any {
	switch {
	case req.rng != nil:
		return o.rangeQuery(*req.rng)
	case req.knn != nil:
		return o.knn(*req.knn)
	case req.den != nil:
		return o.density(*req.den)
	case req.traj != nil:
		return o.traj(*req.traj)
	case req.watch != nil:
		return WatchOracle(o.rows, *req.watch)
	}
	return o.info()
}

func (o *oracle) rangeQuery(q RangeRequest) *RangeResponse {
	hits := o.filter(func(s trajectory.Sample) bool {
		return (q.Floor < 0 || s.Loc.Floor == q.Floor) && s.T >= q.T0 && s.T <= q.T1 &&
			s.Loc.HasPoint && q.Box.Contains(s.Loc.Point)
	})
	objs := []int{}
	for i, s := range hits {
		if i == 0 || s.ObjID != hits[i-1].ObjID {
			objs = append(objs, s.ObjID)
		}
	}
	return &RangeResponse{Query: q, Hits: hits, Objects: objs}
}

// positions calls at with every object's location at instant t, in object
// order, skipping objects unobserved around t.
func (o *oracle) positions(t float64, at func(obj int, loc model.Location)) {
	for lo := 0; lo < len(o.rows); {
		obj := o.rows[lo].ObjID
		hi := lo + sort.Search(len(o.rows)-lo, func(i int) bool { return o.rows[lo+i].ObjID > obj })
		ser := o.rows[lo:hi]
		i := sort.Search(len(ser), func(i int) bool { return ser[i].T >= t })
		var prev, next *trajectory.Sample
		if i > 0 {
			prev = &ser[i-1]
		}
		if i < len(ser) {
			next = &ser[i]
		}
		if loc, ok := trajectory.InterpolateAt(prev, next, t, o.maxGap); ok {
			at(obj, loc)
		}
		lo = hi
	}
}

func (o *oracle) knn(q KNNRequest) *KNNResponse {
	if q.K <= 0 {
		return &KNNResponse{Query: q}
	}
	out := []Neighbor{}
	o.positions(q.T, func(obj int, loc model.Location) {
		if (q.Floor < 0 || loc.Floor == q.Floor) && loc.HasPoint {
			out = append(out, Neighbor{ObjID: obj, Loc: loc, Dist: q.At.Dist(loc.Point)})
		}
	})
	slices.SortFunc(out, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ObjID, b.ObjID))
	})
	return &KNNResponse{Query: q, Neighbors: out[:min(len(out), q.K)]}
}

func (o *oracle) density(q DensityRequest) *DensityResponse {
	counts := make(map[string]int)
	o.positions(q.T, func(_ int, loc model.Location) {
		if loc.Partition != "" {
			counts[loc.Partition]++
		}
	})
	return &DensityResponse{Query: q, Counts: counts}
}

func (o *oracle) traj(q TrajRequest) *TrajResponse {
	return &TrajResponse{Query: q, Samples: o.filter(func(s trajectory.Sample) bool {
		return s.ObjID == q.Obj && s.T >= q.T0 && s.T <= q.T1
	})}
}

// dwell attributes each inter-sample gap up to maxGap to the partition the
// object stayed in, and counts distinct objects per partition.
func (o *oracle) dwell(q DwellRequest) *DwellResponse {
	rows := o.filter(func(s trajectory.Sample) bool {
		return s.T >= q.T0 && s.T <= q.T1 && (q.Floor < 0 || s.Loc.Floor == q.Floor)
	})
	seconds := make(map[string]float64)
	objects := make(map[string]map[int]bool)
	for i, s := range rows {
		if objects[s.Loc.Partition] == nil {
			objects[s.Loc.Partition] = make(map[int]bool)
		}
		objects[s.Loc.Partition][s.ObjID] = true
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		dt := s.T - prev.T
		if prev.ObjID == s.ObjID && prev.Loc.Partition == s.Loc.Partition && dt > 0 && dt <= o.maxGap {
			seconds[s.Loc.Partition] += dt
		}
	}
	rooms := make([]DwellRoom, 0, len(objects))
	for part, objs := range objects {
		rooms = append(rooms, DwellRoom{Partition: part, Seconds: seconds[part], Objects: len(objs)})
	}
	slices.SortFunc(rooms, func(a, b DwellRoom) int {
		return cmp.Or(cmp.Compare(b.Seconds, a.Seconds), cmp.Compare(a.Partition, b.Partition))
	})
	return &DwellResponse{Query: q, Rooms: rooms}
}

func (o *oracle) info() *InfoResponse {
	resp := &InfoResponse{Samples: len(o.rows), Floors: []int{}, Empty: len(o.rows) == 0}
	if resp.Empty {
		return resp
	}
	resp.T0, resp.T1 = math.Inf(1), math.Inf(-1)
	resp.Bounds = geom.BBox{Min: geom.Pt(math.Inf(1), math.Inf(1)), Max: geom.Pt(math.Inf(-1), math.Inf(-1))}
	for i, s := range o.rows {
		if i == 0 || s.ObjID != o.rows[i-1].ObjID {
			resp.Objects++
		}
		if !slices.Contains(resp.Floors, s.Loc.Floor) {
			resp.Floors = append(resp.Floors, s.Loc.Floor)
		}
		resp.T0, resp.T1 = math.Min(resp.T0, s.T), math.Max(resp.T1, s.T)
		p, bb := s.Loc.Point, &resp.Bounds
		bb.Min = geom.Pt(math.Min(bb.Min.X, p.X), math.Min(bb.Min.Y, p.Y))
		bb.Max = geom.Pt(math.Max(bb.Max.X, p.X), math.Max(bb.Max.Y, p.Y))
	}
	slices.Sort(resp.Floors)
	return resp
}

// WatchOracle answers q over rows as Watch must: it feeds the rows,
// stable-sorted by (time, object), to one ContinuousEngine subscription and
// keeps its enter and exit events.
func WatchOracle(rows []trajectory.Sample, q WatchRequest) *WatchResponse {
	rows = slices.Clone(rows)
	slices.SortStableFunc(rows, func(a, b trajectory.Sample) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.ObjID, b.ObjID))
	})
	resp := &WatchResponse{Query: q}
	eng := NewContinuousEngine()
	sub := eng.Subscribe(q.Floor, q.Box, func(e Event) {
		if e.Kind != Move {
			resp.Events = append(resp.Events, WatchEvent{Kind: e.Kind.String(), Sample: e.Sample})
		}
	})
	eng.FeedAll(rows)
	resp.Inside = sub.Inside()
	return resp
}

// EventKind classifies a standing-query transition.
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
	return [...]string{"enter", "move", "exit"}[k]
}

// Event is one standing-query notification.
type Event struct {
	Kind EventKind
	// Sample is the sample that triggered the transition.
	Sample trajectory.Sample
}

// Subscription is one standing range query registered with a
// ContinuousEngine.
type Subscription struct {
	floor  int
	box    geom.BBox
	fn     func(Event)
	inside map[int]trajectory.Sample // objID -> last sample inside the region
}

// Inside returns the object IDs currently inside the query region, sorted.
func (s *Subscription) Inside() []int { return slices.Sorted(maps.Keys(s.inside)) }

// ContinuousEngine is Watch's oracle: it evaluates standing range queries
// one sample at a time, recomputing only the sampled object's membership.
// Callbacks run synchronously inside Feed.
type ContinuousEngine struct {
	subs []*Subscription
}

// NewContinuousEngine returns an engine with no subscriptions.
func NewContinuousEngine() *ContinuousEngine { return &ContinuousEngine{} }

// Subscribe registers a standing range query over floor × box; fn is invoked
// for every Enter/Move/Exit transition. A negative floor matches all floors.
func (e *ContinuousEngine) Subscribe(floor int, box geom.BBox, fn func(Event)) *Subscription {
	sub := &Subscription{floor: floor, box: box, fn: fn, inside: make(map[int]trajectory.Sample)}
	e.subs = append(e.subs, sub)
	return sub
}

// Feed advances every standing query with one sample, firing transition
// callbacks synchronously. Samples should arrive in nondecreasing time order
// per object.
func (e *ContinuousEngine) Feed(s trajectory.Sample) {
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
