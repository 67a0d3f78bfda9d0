package rssi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/trajectory"
)

// benchTrajectories builds a multi-object walk past a grid of devices.
func benchTrajectories(n, steps int) []trajectory.Sample {
	var out []trajectory.Sample
	for id := 1; id <= n; id++ {
		for i := 0; i <= steps; i++ {
			out = append(out, trajectory.Sample{
				ObjID: id,
				Loc:   model.At("office", 0, "F0-S0", geom.Pt(float64(i%30), float64(2+id%15))),
				T:     float64(i),
			})
		}
	}
	return out
}

// byObject splits samples ordered by (object ID, time) into one series per
// run of equal object IDs: the flat-slice form Generate took before the
// pipeline handed trajectories over per object.
func byObject(samples []trajectory.Sample) [][]trajectory.Sample {
	var out [][]trajectory.Sample
	for len(samples) > 0 {
		n := 1
		for n < len(samples) && samples[n].ObjID == samples[0].ObjID {
			n++
		}
		out = append(out, samples[:n])
		samples = samples[n:]
	}
	return out
}

func gridDevices(n int) []*device.Device {
	devs := make([]*device.Device, n)
	for i := range devs {
		props := device.DefaultProperties(device.WiFi)
		props.SampleInterval = 1
		devs[i] = &device.Device{
			ID: fmt.Sprintf("d%02d", i), Type: device.WiFi, Floor: 0,
			Position: geom.Pt(float64(3+(i%5)*7), float64(3+(i/5)*6)),
			Props:    props,
		}
	}
	return devs
}

// TestGenerateParallelIdentical asserts the RSSI reproducibility guarantee:
// the same seed yields byte-identical measurements for any worker count.
func TestGenerateParallelIdentical(t *testing.T) {
	tp := officeTopo(t)
	traj := benchTrajectories(9, 60)
	devs := gridDevices(8)

	run := func(p int) []Measurement {
		gen, err := NewGenerator(tp, devs, Config{Model: DefaultPathLossModel(), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		var ms []Measurement
		n, err := gen.Generate(byObject(traj), rng.New(11), func(b []Measurement) error { ms = append(ms, b...); return nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(ms) {
			t.Fatalf("count %d != emitted %d", n, len(ms))
		}
		return ms
	}

	base := run(1)
	if len(base) == 0 {
		t.Fatal("no measurements generated")
	}
	for _, p := range []int{2, 4, 8} {
		got := run(p)
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: %d measurements, sequential %d", p, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d: measurement %d differs: %+v vs %+v", p, i, got[i], base[i])
			}
		}
	}
}

// TestGenerateEmitOrder asserts the documented emission order: ascending
// object ID, and per (object, device) ascending time.
func TestGenerateEmitOrder(t *testing.T) {
	tp := officeTopo(t)
	gen, err := NewGenerator(tp, gridDevices(6), Config{Model: DefaultPathLossModel(), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Measurement
	if _, err := gen.Generate(byObject(benchTrajectories(7, 40)), rng.New(2), func(b []Measurement) error { ms = append(ms, b...); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	lastObj := 0
	lastT := map[[2]string]float64{}
	for _, m := range ms {
		if m.ObjID < lastObj {
			t.Fatalf("object order violated: %d after %d", m.ObjID, lastObj)
		}
		if m.ObjID > lastObj {
			lastObj = m.ObjID
			lastT = map[[2]string]float64{}
		}
		key := [2]string{fmt.Sprint(m.ObjID), m.DeviceID}
		if prev, ok := lastT[key]; ok && m.T <= prev {
			t.Fatalf("time order violated for obj %d dev %s: %v after %v", m.ObjID, m.DeviceID, m.T, prev)
		}
		lastT[key] = m.T
	}
}

// TestGenerateObjectDone pins the per-object completion step: done sees each
// object's measurements exactly as they are emitted, and its flush runs in
// ascending object ID right after that object's last measurement, at every
// worker count.
func TestGenerateObjectDone(t *testing.T) {
	tp := officeTopo(t)
	traj := benchTrajectories(9, 60)
	for _, p := range []int{1, 4} {
		gen, err := NewGenerator(tp, gridDevices(8), Config{Model: DefaultPathLossModel(), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		var emitted []Measurement
		var flushed []int
		seen := make([][]Measurement, 10)
		done := func(id int, ms []Measurement) func() {
			seen[id] = append([]Measurement(nil), ms...)
			return func() {
				got := emitted[len(emitted)-len(ms):]
				if !slices.Equal(got, ms) {
					t.Errorf("p=%d: object %d flushed before its measurements were emitted", p, id)
				}
				flushed = append(flushed, id)
			}
		}
		n, err := gen.Generate(byObject(traj), rng.New(5), func(b []Measurement) error { emitted = append(emitted, b...); return nil }, done)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(emitted) || n == 0 {
			t.Fatalf("p=%d: count %d, emitted %d", p, n, len(emitted))
		}
		if want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(flushed, want) {
			t.Fatalf("p=%d: flush order %v, want %v", p, flushed, want)
		}
		var all []Measurement
		for _, ms := range seen {
			all = append(all, ms...)
		}
		if !slices.Equal(all, emitted) {
			t.Fatalf("p=%d: done saw other measurements than were emitted", p)
		}
	}
}

// TestGenerateClaimWindow: workers claim objects only within 2 × workers of
// the ordered flush. With the flush of the first object stuck in emit, the
// other workers replay up to the window and then wait; once emit returns,
// every object is emitted, in order, one batch per object.
func TestGenerateClaimWindow(t *testing.T) {
	tp := officeTopo(t)
	const workers, objects = 2, 20
	gen, err := NewGenerator(tp, gridDevices(8), Config{Model: DefaultPathLossModel(), Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	var replayed atomic.Int64
	release := make(chan struct{})
	var batches [][]Measurement
	emit := func(ms []Measurement) error {
		if len(batches) == 0 {
			<-release
		}
		batches = append(batches, slices.Clone(ms))
		return nil
	}
	done := func(int, []Measurement) func() {
		replayed.Add(1)
		return nil
	}
	result := make(chan error, 1)
	go func() {
		_, err := gen.Generate(byObject(benchTrajectories(objects, 30)), rng.New(3), emit, done)
		result <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for replayed.Load() < 2*workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a claim past the window
	if n := replayed.Load(); n != 2*workers {
		t.Fatalf("%d objects replayed while the first flush was stuck, want the window of %d", n, 2*workers)
	}
	close(release)
	if err := <-result; err != nil {
		t.Fatal(err)
	}
	if len(batches) != objects {
		t.Fatalf("%d emit calls, want one per object (%d)", len(batches), objects)
	}
	for i, b := range batches {
		for _, m := range b {
			if m.ObjID != i+1 {
				t.Fatalf("batch %d holds object %d", i, m.ObjID)
			}
		}
	}
}

// TestGenerateEmitErrorStops: the first emit error ends the run: nothing
// later is emitted, and Generate returns it with the rows emitted before.
func TestGenerateEmitErrorStops(t *testing.T) {
	tp := officeTopo(t)
	boom := errors.New("sink full")
	for _, p := range []int{1, 2, 8} {
		gen, err := NewGenerator(tp, gridDevices(8), Config{Model: DefaultPathLossModel(), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		calls, first := 0, 0
		n, err := gen.Generate(byObject(benchTrajectories(30, 30)), rng.New(3), func(ms []Measurement) error {
			calls++
			if calls == 3 {
				return boom
			}
			first += len(ms)
			return nil
		}, nil)
		if err != boom || calls != 3 || n != first {
			t.Fatalf("p=%d: Generate returned (%d, %v) after %d emit calls; want (%d, the emit error) after 3", p, n, err, calls, first)
		}
	}
}

// TestRSSIInstantsOnGlobalGrid: every sampling instant is k·interval for an
// integer k, whatever the object's start time, so two objects a device hears
// at one instant carry the same T. Accumulating t += interval drifts off
// the grid for intervals that are not dyadic fractions (0.1, 0.3).
func TestRSSIInstantsOnGlobalGrid(t *testing.T) {
	tp := officeTopo(t)
	props := device.DefaultProperties(device.WiFi)
	props.DetectionRange = 50
	dev := &device.Device{ID: "d1", Type: device.WiFi, Floor: 0, Position: geom.Pt(4, 4), Props: props}
	var traj []trajectory.Sample
	for id, start := range []float64{0.37, 1.05, 2.9, 13.01} {
		for i := 0; i <= 600; i++ {
			traj = append(traj, trajectory.Sample{
				ObjID: id + 1,
				Loc:   model.At("office", 0, "F0-S0", geom.Pt(5, 4)),
				T:     start + float64(i),
			})
		}
	}
	for _, interval := range []float64{0.1, 0.3} {
		gen, err := NewGenerator(tp, []*device.Device{dev}, Config{Model: DefaultPathLossModel(), SampleInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		if _, err := gen.Generate(byObject(traj), rng.New(1), func(b []Measurement) error {
			for _, m := range b {
				if k := math.Round(m.T / interval); m.T != k*interval {
					off++
				}
			}
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
		if off != 0 {
			t.Errorf("interval %g: %d instants off the k·interval grid", interval, off)
		}
	}
}

// TestGenerateRejectsUnorderedObjects: an object whose samples do not form
// one run in ascending object order is refused, not replayed twice.
func TestGenerateRejectsUnorderedObjects(t *testing.T) {
	gen, err := NewGenerator(officeTopo(t), gridDevices(2), Config{Model: DefaultPathLossModel()})
	if err != nil {
		t.Fatal(err)
	}
	traj := append(benchTrajectories(2, 5), benchTrajectories(1, 5)...)
	if _, err := gen.Generate(byObject(traj), rng.New(1), func([]Measurement) error { return nil }, nil); err == nil {
		t.Error("object 1 after object 2 accepted")
	}
}

func TestNewGeneratorRejectsNegativeParallelism(t *testing.T) {
	tp := officeTopo(t)
	if _, err := NewGenerator(tp, nil, Config{Model: DefaultPathLossModel(), Parallelism: -2}); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// BenchmarkGenerate measures RSSI synthesis at several worker counts over a
// fixed 40-object, 120-second replay against 12 devices.
func BenchmarkGenerate(b *testing.B) {
	tp := officeTopo(b)
	series := byObject(benchTrajectories(40, 120))
	devs := gridDevices(12)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			gen, err := NewGenerator(tp, devs, Config{Model: DefaultPathLossModel(), Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(series, rng.New(uint64(i+1)), func([]Measurement) error { return nil }, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCrossingReuseMatchesDirect: the wall count a staying object's repeated
// position reuses is the count a direct line-of-sight query returns. With the
// noise term off, every measurement must equal the model evaluated at the
// interpolated position with a fresh Crossings call, over a walk that stays,
// moves through walls and stays again.
func TestCrossingReuseMatchesDirect(t *testing.T) {
	tp := officeTopo(t)
	m := DefaultPathLossModel()
	m.FluctuationSigma = 0
	devs := gridDevices(10)
	var traj []trajectory.Sample
	x := 2.0
	for i := 0; i <= 240; i++ {
		if (i/12)%2 == 1 { // alternate 12 s stays with 12 s walks
			x += 1.3
		}
		traj = append(traj, trajectory.Sample{
			ObjID: 1,
			Loc:   model.At("office", 0, "F0-S0", geom.Pt(1+math.Mod(x, 37), 3+float64(i/60)*4)),
			T:     float64(i),
		})
	}
	gen, err := NewGenerator(tp, devs, Config{Model: m, SampleInterval: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Measurement
	if _, err := gen.Generate([][]trajectory.Sample{traj}, rng.New(1), func(b []Measurement) error { ms = append(ms, b...); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*device.Device{}
	for _, d := range devs {
		byID[d.ID] = d
	}
	counts := map[int]int{}
	repeated := 0
	last := map[string]geom.Point{}
	for _, mm := range ms {
		dev := byID[mm.DeviceID]
		loc, _ := trajectory.SeriesAt(traj, mm.T)
		pos := loc.Point
		n := tp.Crossings(loc.Floor, dev.Position, pos)
		if want := m.At(dev.Position.Dist(pos), n, dev, nil); mm.RSSI != want {
			t.Fatalf("device %s at t=%v: RSSI %v, the model with %d fresh crossings gives %v", mm.DeviceID, mm.T, mm.RSSI, n, want)
		}
		counts[n]++
		if p, ok := last[mm.DeviceID]; ok && p == pos {
			repeated++
		}
		last[mm.DeviceID] = pos
	}
	if len(counts) < 3 || repeated == 0 {
		t.Fatalf("walk too tame: crossing counts %v, %d repeated positions", counts, repeated)
	}
}
