package object

import (
	"math"
	"testing"

	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/topo"
)

func mallTopo(t testing.TB) *topo.Topology {
	t.Helper()
	f, err := ifc.Parse(ifc.MallIFC())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ifc.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(b, topo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestUniformPlacesInsidePartitions(t *testing.T) {
	tp := mallTopo(t)
	r := rng.New(1)
	for i := 0; i < 300; i++ {
		loc, err := (Uniform{}).Place(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := tp.B.Partition(loc.Floor, loc.Partition)
		if !ok {
			t.Fatalf("placed in unknown partition %s", loc.Partition)
		}
		if !p.Contains(loc.Point) {
			t.Fatalf("point %v outside its partition %s", loc.Point, p.ID)
		}
	}
}

func TestCrowdOutliersConcentrates(t *testing.T) {
	tp := mallTopo(t)
	r := rng.New(2)
	dist := CrowdOutliers{CrowdFraction: 0.8}
	// The mall names some shops "(on sale)": those are the hot areas.
	hot, err := dist.hotAreas(tp.B)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot areas auto-selected")
	}
	hotIDs := map[string]bool{}
	for _, p := range hot {
		hotIDs[p.ID] = true
	}
	const n = 1000
	inHot := 0
	for i := 0; i < n; i++ {
		loc, err := dist.Place(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		if hotIDs[loc.Partition] {
			inHot++
		}
	}
	frac := float64(inHot) / n
	// Hot partitions cover a small area fraction; crowd fraction 0.8 should
	// land well above a uniform baseline.
	if frac < 0.5 {
		t.Errorf("crowd fraction = %.2f, want >= 0.5", frac)
	}
}

func TestCrowdOutliersExplicitHotPartitions(t *testing.T) {
	tp := mallTopo(t)
	r := rng.New(3)
	dist := CrowdOutliers{CrowdFraction: 1.0, HotPartitions: []string{"F0-SHOP1"}}
	for i := 0; i < 100; i++ {
		loc, err := dist.Place(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := tp.B.Partition(loc.Floor, loc.Partition)
		if p.ID != "F0-SHOP1" && p.Parent != "F0-SHOP1" {
			t.Fatalf("object escaped the only hot partition: %s", loc.Partition)
		}
	}
	bad := CrowdOutliers{HotPartitions: []string{"NOPE"}}
	if _, err := bad.Place(tp, r); err == nil {
		t.Error("unknown hot partition accepted")
	}
}

func TestSpawnConfigValidate(t *testing.T) {
	good := SpawnConfig{InitialCount: 1, MinLifespan: 10, MaxLifespan: 20, MaxSpeed: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	cases := []SpawnConfig{
		{InitialCount: -1, MinLifespan: 10, MaxLifespan: 20, MaxSpeed: 1},
		{MinLifespan: 0, MaxLifespan: 20, MaxSpeed: 1},
		{MinLifespan: 30, MaxLifespan: 20, MaxSpeed: 1},
		{MinLifespan: 10, MaxLifespan: 20, MaxSpeed: 0},
		{MinLifespan: 10, MaxLifespan: 20, MaxSpeed: 1, ArrivalRate: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSpawnerInitialPopulation(t *testing.T) {
	tp := mallTopo(t)
	sp, err := NewSpawner(tp, SpawnConfig{
		InitialCount: 25,
		MinLifespan:  100, MaxLifespan: 200,
		MaxSpeed: 2,
		Pattern:  DefaultPattern(),
	})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := sp.Initial(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 25 {
		t.Fatalf("spawned %d", len(objs))
	}
	ids := map[int]bool{}
	for _, o := range objs {
		if err := o.Validate(); err != nil {
			t.Errorf("invalid object: %v", err)
		}
		if o.Lifespan < 100 || o.Lifespan > 200 {
			t.Errorf("lifespan %v outside bounds", o.Lifespan)
		}
		if o.MaxSpeed < 1 || o.MaxSpeed > 2 {
			t.Errorf("speed %v outside [1,2]", o.MaxSpeed)
		}
		if ids[o.ID] {
			t.Errorf("duplicate object ID %d", o.ID)
		}
		ids[o.ID] = true
		if !o.Alive(o.Birth) || o.Alive(o.Death()) {
			t.Error("Alive boundaries wrong")
		}
	}
}

func TestSpawnerArrivalsRate(t *testing.T) {
	tp := mallTopo(t)
	const rate = 0.5
	const horizon = 2000.0
	sp, err := NewSpawner(tp, SpawnConfig{
		InitialCount: 0,
		MinLifespan:  10, MaxLifespan: 20,
		MaxSpeed:    1,
		ArrivalRate: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	if _, err := sp.Initial(r); err != nil {
		t.Fatal(err)
	}
	var arrivals []*Object
	prev := 0.0
	for tt := 10.0; tt <= horizon; tt += 10 {
		batch, err := sp.ArrivalsUntil(prev, tt, r)
		if err != nil {
			t.Fatal(err)
		}
		arrivals = append(arrivals, batch...)
		prev = tt
	}
	expected := rate * horizon
	got := float64(len(arrivals))
	if math.Abs(got-expected) > expected*0.15 {
		t.Errorf("arrivals = %v, expected ≈ %v", got, expected)
	}
	// Birth times must be non-decreasing and within the horizon.
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Birth < arrivals[i-1].Birth {
			t.Fatal("arrival births not ordered")
		}
	}
}

func TestSpawnerEmergingPartitions(t *testing.T) {
	tp := mallTopo(t)
	sp, err := NewSpawner(tp, SpawnConfig{
		InitialCount: 0,
		MinLifespan:  10, MaxLifespan: 20,
		MaxSpeed:           1,
		ArrivalRate:        1,
		EmergingPartitions: []string{"F0-CORR"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	if _, err := sp.Initial(r); err != nil {
		t.Fatal(err)
	}
	batch, err := sp.ArrivalsUntil(0, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 {
		t.Fatal("no arrivals")
	}
	for _, o := range batch {
		p, ok := tp.B.Partition(o.Loc.Floor, o.Loc.Partition)
		if !ok || (p.ID != "F0-CORR" && p.Parent != "F0-CORR") {
			t.Fatalf("arrival outside emerging partition: %s", o.Loc.Partition)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	if DestinationIntent.String() != "destination" || RandomWayIntent.String() != "random-way" {
		t.Error("intention strings")
	}
	if ConstantWalk.String() != "constant-walk" || WalkStay.String() != "walk-stay" {
		t.Error("behavior strings")
	}
	if PhaseWalking.String() == "" || PhaseStaying.String() == "" || PhaseDead.String() == "" {
		t.Error("phase strings")
	}
}

func TestObjectValidate(t *testing.T) {
	o := &Object{ID: 1, Lifespan: 0, MaxSpeed: 1}
	if err := o.Validate(); err == nil {
		t.Error("zero lifespan accepted")
	}
	o = &Object{ID: 1, Lifespan: 10, MaxSpeed: 0}
	if err := o.Validate(); err == nil {
		t.Error("zero speed accepted")
	}
	o = &Object{ID: 1, Lifespan: 10, MaxSpeed: 1, Loc: model.At("b", 0, "p", geom.Pt(1, 1))}
	if err := o.Validate(); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
	if !o.Position().Eq(geom.Pt(1, 1)) {
		t.Error("Position accessor")
	}
}
