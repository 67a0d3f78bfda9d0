package positioning

import (
	"math"
	"testing"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// BenchmarkPositioning times each method on one object's measurements, the
// unit the RSSI workers hand it: an object walking and staying on the
// synthetic mall's ground floor for 1 800 s, heard every 2 s by 12 Wi-Fi
// devices per floor (the gen_mall deployment), positioned in 5 s windows.
// It reports ns per measurement and fails past a fixed allocation budget:
// windows are pooled scratch, so a call allocates its output and a few
// scratch slices, never per measurement or per window (beyond the one
// candidate list each naive Bayes record carries).
func BenchmarkPositioning(b *testing.B) {
	f, err := ifc.Parse(ifc.MallIFC())
	if err != nil {
		b.Fatal(err)
	}
	bld, _, err := ifc.Extract(f)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := topo.Build(bld, topo.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(24)
	var devs []*device.Device
	for _, fl := range []int{0, 1} {
		ds, err := device.Deploy(bld, fl, device.DeploySpec{Model: device.Coverage, Type: device.WiFi, Count: 12}, r)
		if err != nil {
			b.Fatal(err)
		}
		devs = append(devs, ds...)
	}
	box := bld.Floors[0].BBox()
	var traj []trajectory.Sample
	x := 0.0
	for i := 0; i <= 1800; i++ {
		if (i/30)%3 != 2 { // walk 60 s, stay 30 s
			x += 1.2
		}
		u := math.Abs(math.Mod(x, 2*box.Width())/box.Width() - 1) // bounce across the floor
		traj = append(traj, trajectory.Sample{
			ObjID: 1,
			Loc:   model.At(bld.ID, 0, "", geom.Pt(box.Min.X+u*box.Width(), box.Min.Y+box.Height()*(0.3+0.4*float64(i/600)/3))),
			T:     float64(i),
		})
	}
	pm := rssi.DefaultPathLossModel()
	gen, err := rssi.NewGenerator(tp, devs, rssi.Config{Model: pm, SampleInterval: 2, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	var ms []rssi.Measurement
	if _, err := gen.Generate([][]trajectory.Sample{traj}, r, func(b []rssi.Measurement) error { ms = append(ms, b...); return nil }, nil); err != nil {
		b.Fatal(err)
	}
	rm, err := BuildRadioMap(tp, devs, RadioMapConfig{Model: pm}, r)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewTrilateration(tp, devs, TrilaterationConfig{Convert: DefaultConversion(pm), SampleInterval: 5})
	if err != nil {
		b.Fatal(err)
	}
	knn, err := NewFingerprinting(rm, devs, FingerprintConfig{Algorithm: KNN, SampleInterval: 5})
	if err != nil {
		b.Fatal(err)
	}
	bayes, err := NewFingerprinting(rm, devs, FingerprintConfig{Algorithm: NaiveBayes, SampleInterval: 5})
	if err != nil {
		b.Fatal(err)
	}
	windows := 1800 / 5
	for _, m := range []struct {
		name   string
		run    func() (int, error)
		budget float64
	}{
		{"trilateration", func() (int, error) { es, err := tr.Estimate(ms); return len(es), err }, 24},
		{"knn", func() (int, error) { es, err := knn.Estimate(ms); return len(es), err }, 24},
		{"bayes", func() (int, error) { pes, err := bayes.EstimateProbabilistic(ms); return len(pes), err }, 24 + float64(windows)},
	} {
		b.Run(m.name, func(b *testing.B) {
			n, err := m.run()
			if err != nil {
				b.Fatal(err)
			}
			if n < windows/2 {
				b.Fatalf("%d estimates from %d measurements over %d windows", n, len(ms), windows)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := m.run(); err != nil {
					b.Fatal(err)
				}
			})
			if allocs > m.budget {
				b.Fatalf("positioning %d measurements costs %.0f allocs, budget %.0f", len(ms), allocs, m.budget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ms)), "ns/measurement")
			b.ReportMetric(allocs, "allocs/call")
		})
	}
}
