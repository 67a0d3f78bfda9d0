package rssi

import (
	"math"
	"testing"
	"testing/quick"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

func officeTopo(t testing.TB) *topo.Topology {
	t.Helper()
	f, err := ifc.Parse(ifc.OfficeIFC())
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

func TestPathLossMonotonicInDistance(t *testing.T) {
	m := DefaultPathLossModel()
	prev := math.Inf(1)
	for _, d := range []float64{1, 2, 5, 10, 20, 50} {
		v := m.At(d, 0, nil, nil)
		if v >= prev {
			t.Fatalf("RSSI not decreasing: %v at %vm after %v", v, d, prev)
		}
		prev = v
	}
}

func TestPathLossWallPenalty(t *testing.T) {
	m := DefaultPathLossModel()
	clear := m.At(10, 0, nil, nil)
	blocked := m.At(10, 2, nil, nil)
	want := m.WallLoss * 2
	if got := clear - blocked; math.Abs(got-want) > 1e-9 {
		t.Errorf("wall penalty = %v, want %v", got, want)
	}
}

func TestPathLossConstantPenaltyMode(t *testing.T) {
	m := DefaultPathLossModel()
	m.UseLineOfSight = false
	m.ConstantObstaclePenalty = 4
	a := m.At(10, 0, nil, nil)
	b := m.At(10, 5, nil, nil) // crossings ignored
	if a != b {
		t.Errorf("constant mode should ignore crossings: %v vs %v", a, b)
	}
	m2 := DefaultPathLossModel()
	if m.At(10, 0, nil, nil) >= m2.At(10, 0, nil, nil) {
		t.Error("constant penalty not applied")
	}
}

func TestPathLossClampsBelowOneMeter(t *testing.T) {
	m := DefaultPathLossModel()
	if m.At(0.01, 0, nil, nil) != m.At(1, 0, nil, nil) {
		t.Error("sub-meter distances must clamp to the 1m calibration point")
	}
}

func TestDeviceOverrides(t *testing.T) {
	m := DefaultPathLossModel()
	d := &device.Device{Props: device.Properties{CalibrationA: -60, PathLossExponent: 3}}
	base := m.At(10, 0, nil, nil)
	dev := m.At(10, 0, d, nil)
	want := -10*3*math.Log10(10) + -60
	if math.Abs(dev-want) > 1e-9 {
		t.Errorf("device-specific RSSI = %v, want %v", dev, want)
	}
	if dev == base {
		t.Error("device overrides ignored")
	}
}

func TestInvertDistanceRoundTrip(t *testing.T) {
	m := DefaultPathLossModel()
	for _, d := range []float64{1, 3, 7.5, 20, 34} {
		v := m.At(d, 0, nil, nil) // noise-free
		got := m.InvertDistance(v, nil)
		if math.Abs(got-d) > 1e-6*d {
			t.Errorf("InvertDistance(%v) = %v, want %v", v, got, d)
		}
	}
}

func TestQuickInvertDistanceMonotonic(t *testing.T) {
	m := DefaultPathLossModel()
	f := func(a, b float64) bool {
		ra := -30 - math.Abs(math.Mod(a, 70))
		rb := -30 - math.Abs(math.Mod(b, 70))
		da := m.InvertDistance(ra, nil)
		db := m.InvertDistance(rb, nil)
		if ra == rb {
			return da == db
		}
		// Weaker RSSI must invert to a larger distance.
		if ra < rb {
			return da >= db
		}
		return da <= db
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFluctuationStatistics(t *testing.T) {
	m := DefaultPathLossModel()
	m.FluctuationSigma = 3
	r := rng.New(1)
	const n = 20000
	base := m.At(10, 0, nil, nil)
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := m.At(10, 0, nil, r)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-base) > 0.1 {
		t.Errorf("noisy mean %v deviates from %v", mean, base)
	}
	if math.Abs(sd-3) > 0.15 {
		t.Errorf("noise sd = %v, want 3", sd)
	}
}

func TestModelValidate(t *testing.T) {
	bad := []PathLossModel{
		{Exponent: 0, FluctuationSigma: 1},
		{Exponent: 2, FluctuationSigma: -1},
		{Exponent: 2, WallLoss: -3},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	if err := DefaultPathLossModel().Validate(); err != nil {
		t.Errorf("default model rejected: %v", err)
	}
}

func TestGeneratorRangeGating(t *testing.T) {
	tp := officeTopo(t)
	props := device.DefaultProperties(device.WiFi)
	props.DetectionRange = 5
	props.SampleInterval = 1
	dev := &device.Device{ID: "d1", Type: device.WiFi, Floor: 0,
		Position: geom.Pt(4, 4), Props: props}
	gen, err := NewGenerator(tp, []*device.Device{dev}, Config{Model: DefaultPathLossModel()})
	if err != nil {
		t.Fatal(err)
	}
	// One object walking straight through the detection range.
	var traj []trajectory.Sample
	for i := 0; i <= 20; i++ {
		traj = append(traj, trajectory.Sample{
			ObjID: 1,
			Loc:   model.At("office", 0, "F0-S0", geom.Pt(float64(i), 4)),
			T:     float64(i),
		})
	}
	var ms []Measurement
	n, err := gen.Generate(byObject(traj), rng.New(2), func(b []Measurement) error { ms = append(ms, b...); return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ms) || n == 0 {
		t.Fatalf("generated %d/%d", n, len(ms))
	}
	// Only within ±5m of x=4, i.e. t in [0,9]: x(t)=t.
	for _, m := range ms {
		if m.T < -0.001 || m.T > 9.001 {
			t.Errorf("measurement at t=%v outside detection window", m.T)
		}
		if m.DeviceID != "d1" || m.ObjID != 1 {
			t.Errorf("wrong identifiers: %+v", m)
		}
	}
}

func TestGeneratorSampleIntervalOverride(t *testing.T) {
	tp := officeTopo(t)
	props := device.DefaultProperties(device.WiFi)
	props.SampleInterval = 1
	dev := &device.Device{ID: "d1", Type: device.WiFi, Floor: 0,
		Position: geom.Pt(4, 4), Props: props}
	var traj []trajectory.Sample
	for i := 0; i <= 10; i++ {
		traj = append(traj, trajectory.Sample{
			ObjID: 1, Loc: model.At("office", 0, "F0-S0", geom.Pt(4, 4)), T: float64(i),
		})
	}
	count := func(interval float64) int {
		gen, err := NewGenerator(tp, []*device.Device{dev},
			Config{Model: DefaultPathLossModel(), SampleInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Generate(byObject(traj), rng.New(3), func([]Measurement) error { return nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fine, coarse := count(0.5), count(2)
	if fine <= coarse {
		t.Errorf("override ignored: fine=%d coarse=%d", fine, coarse)
	}
}

func TestGeneratorFloorSeparation(t *testing.T) {
	tp := officeTopo(t)
	dev := &device.Device{ID: "d1", Type: device.WiFi, Floor: 1,
		Position: geom.Pt(4, 4), Props: device.DefaultProperties(device.WiFi)}
	traj := []trajectory.Sample{
		{ObjID: 1, Loc: model.At("office", 0, "F0-S0", geom.Pt(4, 4)), T: 0},
		{ObjID: 1, Loc: model.At("office", 0, "F0-S0", geom.Pt(4, 4)), T: 10},
	}
	gen, err := NewGenerator(tp, []*device.Device{dev}, Config{Model: DefaultPathLossModel()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Generate(byObject(traj), rng.New(4), func([]Measurement) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("device on floor 1 heard object on floor 0: %d measurements", n)
	}
}

func TestGeneratorNilEmit(t *testing.T) {
	tp := officeTopo(t)
	gen, err := NewGenerator(tp, nil, Config{Model: DefaultPathLossModel()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(nil, rng.New(1), nil, nil); err == nil {
		t.Error("nil emit accepted")
	}
}
