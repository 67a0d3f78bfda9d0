package topo

import (
	"math"
	"testing"
	"testing/quick"

	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/rng"
)

// TestQuickRouteAtLeastEuclidean: for random same-floor OD pairs, the indoor
// walking distance is never below the Euclidean distance.
func TestQuickRouteAtLeastEuclidean(t *testing.T) {
	tp := officeTopo(t)
	r := rng.New(99)
	f := func(seed uint64) bool {
		rr := rng.New(seed ^ r.Uint64())
		from, to, ok := randomPairSameBuilding(tp, rr)
		if !ok {
			return true
		}
		route, err := tp.Route(from, to, MinDistance)
		if err != nil {
			return true // disconnected pairs are fine
		}
		if from.Floor != to.Floor {
			return route.Distance > 0
		}
		return route.Distance >= from.Point.Dist(to.Point)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickRouteSymmetry: with all doors bidirectional, A→B and B→A routes
// have equal length (the graph is symmetric).
func TestQuickRouteSymmetry(t *testing.T) {
	tp := officeTopo(t)
	r := rng.New(123)
	f := func(seed uint64) bool {
		rr := rng.New(seed ^ r.Uint64())
		from, to, ok := randomPairSameBuilding(tp, rr)
		if !ok {
			return true
		}
		fwd, err1 := tp.Route(from, to, MinDistance)
		rev, err2 := tp.Route(to, from, MinDistance)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return math.Abs(fwd.Distance-rev.Distance) < 1e-6*(1+fwd.Distance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickRouteWaypointsConnected: consecutive same-floor waypoints of a
// route are never absurdly far apart, and the route starts/ends at the
// queried points.
func TestQuickRouteWaypointsConnected(t *testing.T) {
	tp := officeTopo(t)
	r := rng.New(7)
	f := func(seed uint64) bool {
		rr := rng.New(seed ^ r.Uint64())
		from, to, ok := randomPairSameBuilding(tp, rr)
		if !ok {
			return true
		}
		route, err := tp.Route(from, to, MinDistance)
		if err != nil {
			return true
		}
		wps := route.Waypoints
		if len(wps) < 2 {
			return false
		}
		if !wps[0].Point.Eq(from.Point) || !wps[len(wps)-1].Point.Eq(to.Point) {
			return false
		}
		var sum float64
		for i := 1; i < len(wps); i++ {
			if wps[i].Floor == wps[i-1].Floor {
				sum += wps[i].Point.Dist(wps[i-1].Point)
			}
		}
		// Same-floor leg sum can never exceed the reported total distance.
		return sum <= route.Distance+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecompositionPreservesArea: decomposition must not change the total
// floor area.
func TestDecompositionPreservesArea(t *testing.T) {
	parse := func() *model.Building {
		f, err := ifc.Parse(ifc.MallIFC())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ifc.Extract(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	area := func(b *model.Building) float64 {
		var total float64
		for _, f := range b.Floors {
			for _, p := range f.Partitions {
				total += p.Polygon.Area()
			}
		}
		return total
	}
	plain := parse()
	before := area(plain)
	added, err := Decompose(plain, DefaultOptions().MaxArea)
	if err != nil {
		t.Fatal(err)
	}
	if err := ConnectDoors(plain); err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("mall should require decomposition")
	}
	after := area(plain)
	if math.Abs(before-after) > 1e-6*(1+before) {
		t.Errorf("decomposition changed area: %v -> %v", before, after)
	}
	// All children must record their parent and be convex-or-depth-bounded.
	for _, f := range plain.Floors {
		for _, p := range f.Partitions {
			if p.Parent != "" && p.Parent == p.ID {
				t.Errorf("partition %s is its own parent", p.ID)
			}
		}
	}
}

func randomPairSameBuilding(tp *Topology, r *rng.Rand) (model.Location, model.Location, bool) {
	var parts []*model.Partition
	for _, f := range tp.B.Floors {
		parts = append(parts, f.Partitions...)
	}
	if len(parts) < 2 {
		return model.Location{}, model.Location{}, false
	}
	pa := parts[r.Intn(len(parts))]
	pb := parts[r.Intn(len(parts))]
	from := model.At(tp.B.ID, pa.Floor, pa.ID, RandomPointIn(pa, r.Float64))
	to := model.At(tp.B.ID, pb.Floor, pb.ID, RandomPointIn(pb, r.Float64))
	return from, to, true
}
