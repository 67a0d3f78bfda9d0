package positioning

import (
	"math"
	"reflect"
	"testing"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
)

func officeTopo(t testing.TB) *topo.Topology {
	t.Helper()
	f, err := ifc.Parse(ifc.OfficeIFC())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(b, topo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// noiseFreeModel returns a path loss model with no fluctuation and no wall
// noise, so methods can be tested for exact recovery.
func noiseFreeModel() rssi.PathLossModel {
	m := rssi.DefaultPathLossModel()
	m.FluctuationSigma = 0
	m.WallLoss = 0
	return m
}

// squareDevices places four Wi-Fi devices at the corners of a square on
// floor 0.
func squareDevices() []*device.Device {
	props := device.DefaultProperties(device.WiFi)
	props.DetectionRange = 100
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(20, 20), geom.Pt(0, 20)}
	out := make([]*device.Device, len(pts))
	for i, p := range pts {
		out[i] = &device.Device{
			ID: string(rune('a' + i)), Type: device.WiFi, Floor: 0,
			Position: p, Props: props,
		}
	}
	return out
}

// measurementsAt synthesizes noise-free measurements of an object at pt.
func measurementsAt(devs []*device.Device, m rssi.PathLossModel, pt geom.Point, tm float64) []rssi.Measurement {
	var out []rssi.Measurement
	for _, d := range devs {
		out = append(out, rssi.Measurement{
			ObjID:    1,
			DeviceID: d.ID,
			RSSI:     m.At(d.Position.Dist(pt), 0, d, nil),
			T:        tm,
		})
	}
	return out
}

func TestTrilaterationExactRecovery(t *testing.T) {
	tp := officeTopo(t)
	devs := squareDevices()
	m := noiseFreeModel()
	tr, err := NewTrilateration(tp, devs, TrilaterationConfig{
		Convert:        DefaultConversion(m),
		SampleInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, truth := range []geom.Point{geom.Pt(10, 10), geom.Pt(5, 3), geom.Pt(18, 15)} {
		ests, err := tr.Estimate(measurementsAt(devs, m, truth, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 1 {
			t.Fatalf("got %d estimates", len(ests))
		}
		if d := ests[0].Loc.Point.Dist(truth); d > 0.01 {
			t.Errorf("trilateration error %.4fm at %v (est %v)", d, truth, ests[0].Loc.Point)
		}
	}
}

func TestTrilaterationNeedsThreeDevices(t *testing.T) {
	tp := officeTopo(t)
	devs := squareDevices()[:2]
	m := noiseFreeModel()
	tr, err := NewTrilateration(tp, devs, TrilaterationConfig{Convert: DefaultConversion(m)})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := tr.Estimate(measurementsAt(devs, m, geom.Pt(10, 10), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 0 {
		t.Errorf("2-device window produced %d estimates", len(ests))
	}
}

func TestTrilaterationCollinearDevices(t *testing.T) {
	tp := officeTopo(t)
	props := device.DefaultProperties(device.WiFi)
	props.DetectionRange = 100
	var devs []*device.Device
	for i := 0; i < 3; i++ {
		devs = append(devs, &device.Device{
			ID: string(rune('a' + i)), Type: device.WiFi, Floor: 0,
			Position: geom.Pt(float64(i*10), 5), Props: props,
		})
	}
	m := noiseFreeModel()
	tr, err := NewTrilateration(tp, devs, TrilaterationConfig{Convert: DefaultConversion(m)})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := tr.Estimate(measurementsAt(devs, m, geom.Pt(10, 10), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 0 {
		t.Errorf("collinear devices produced %d estimates", len(ests))
	}
}

func TestTrilaterationUnknownDevice(t *testing.T) {
	tp := officeTopo(t)
	tr, err := NewTrilateration(tp, squareDevices(), TrilaterationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Estimate([]rssi.Measurement{
		{ObjID: 1, DeviceID: "ghost", RSSI: -50, T: 1},
		{ObjID: 1, DeviceID: "ghost2", RSSI: -50, T: 1},
		{ObjID: 1, DeviceID: "ghost3", RSSI: -50, T: 1},
	})
	if err == nil {
		t.Error("unknown device accepted")
	}
}

func buildRadioMap(t *testing.T, tp *topo.Topology, devs []*device.Device, m rssi.PathLossModel, spacing float64) *RadioMap {
	t.Helper()
	rm, err := BuildRadioMap(tp, devs, RadioMapConfig{
		Spacing: spacing,
		Model:   m,
		Floors:  []int{0},
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestFingerprintKNNRecoversLocation(t *testing.T) {
	tp := officeTopo(t)
	devs := squareDevices()
	m := noiseFreeModel()
	rm := buildRadioMap(t, tp, devs, m, 2)
	fp, err := NewFingerprinting(rm, devs, FingerprintConfig{Algorithm: KNN, K: 3, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.Pt(10, 10)
	ests, err := fp.Estimate(measurementsAt(devs, m, truth, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 1 {
		t.Fatalf("got %d estimates", len(ests))
	}
	// With a 2m grid and noise-free signals, the error is bounded by the
	// grid quantization.
	if d := ests[0].Loc.Point.Dist(truth); d > 2.5 {
		t.Errorf("kNN error %.2fm exceeds grid bound", d)
	}
}

func TestFingerprintBayesProbabilities(t *testing.T) {
	tp := officeTopo(t)
	devs := squareDevices()
	m := rssi.DefaultPathLossModel() // with noise, for realistic stddevs
	rm := buildRadioMap(t, tp, devs, m, 4)
	fp, err := NewFingerprinting(rm, devs, FingerprintConfig{Algorithm: NaiveBayes, K: 5, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	pes, err := fp.EstimateProbabilistic(measurementsAt(devs, noiseFreeModel(), geom.Pt(10, 10), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pes) != 1 {
		t.Fatalf("got %d prob estimates", len(pes))
	}
	pe := pes[0]
	if len(pe.Candidates) == 0 || len(pe.Candidates) > 5 {
		t.Fatalf("candidates = %d", len(pe.Candidates))
	}
	var sum float64
	for _, c := range pe.Candidates {
		if c.Prob < 0 || c.Prob > 1 {
			t.Errorf("probability %v out of range", c.Prob)
		}
		sum += c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	top, ok := pe.Top()
	if !ok {
		t.Fatal("no top candidate")
	}
	if d := top.Loc.Point.Dist(geom.Pt(10, 10)); d > 5 {
		t.Errorf("Bayes top candidate %.2fm away", d)
	}

	// The deterministic Bayes estimate is the most probable candidate.
	best := pe.Candidates[0]
	for _, c := range pe.Candidates {
		if c.Prob > best.Prob {
			best = c
		}
	}
	est, err := fp.Estimate(measurementsAt(devs, noiseFreeModel(), geom.Pt(10, 10), 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Estimate{ObjID: pe.ObjID, Loc: best.Loc, T: pe.T}); len(est) != 1 || est[0] != want {
		t.Errorf("Bayes Estimate = %+v, want the most probable candidate %+v", est, want)
	}
}

func TestRadioMapValidation(t *testing.T) {
	tp := officeTopo(t)
	if _, err := BuildRadioMap(tp, nil, RadioMapConfig{Model: noiseFreeModel()}, rng.New(1)); err == nil {
		t.Error("radio map with no devices accepted")
	}
	if _, err := NewFingerprinting(&RadioMap{}, nil, FingerprintConfig{}); err == nil {
		t.Error("empty radio map accepted")
	}
}

func TestProximityIntervals(t *testing.T) {
	props := device.DefaultProperties(device.RFID)
	props.SampleInterval = 1
	dev := &device.Device{ID: "r1", Type: device.RFID, Floor: 0, Props: props}
	px, err := NewProximity([]*device.Device{dev}, ProximityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two visits separated by a 10s gap.
	var ms []rssi.Measurement
	for _, tm := range []float64{0, 1, 2, 3, 15, 16, 17} {
		ms = append(ms, rssi.Measurement{ObjID: 1, DeviceID: "r1", RSSI: -50, T: tm})
	}
	recs, err := px.Records(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].TS != 0 || recs[0].TE != 3 {
		t.Errorf("first interval = [%v, %v]", recs[0].TS, recs[0].TE)
	}
	if recs[1].TS != 15 || recs[1].TE != 17 {
		t.Errorf("second interval = [%v, %v]", recs[1].TS, recs[1].TE)
	}
	if recs[0].Duration() != 3 {
		t.Errorf("Duration = %v", recs[0].Duration())
	}
}

func TestProximityRSSIThreshold(t *testing.T) {
	dev := &device.Device{ID: "r1", Type: device.RFID, Floor: 0,
		Props: device.DefaultProperties(device.RFID)}
	px, err := NewProximity([]*device.Device{dev}, ProximityConfig{RSSIThreshold: -60})
	if err != nil {
		t.Fatal(err)
	}
	ms := []rssi.Measurement{
		{ObjID: 1, DeviceID: "r1", RSSI: -80, T: 0}, // below threshold
		{ObjID: 1, DeviceID: "r1", RSSI: -50, T: 1},
	}
	recs, err := px.Records(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TS != 1 {
		t.Errorf("threshold filter broken: %+v", recs)
	}
}

// TestWindowizeAveraging: readings are averaged per (object, window,
// device) into the device-indexed slots, windows come out in (object, time)
// order, and a reading of an unranked ID is kept aside.
func TestWindowizeAveraging(t *testing.T) {
	ms := []rssi.Measurement{
		{ObjID: 2, DeviceID: "a", RSSI: -45, T: 0.5},
		{ObjID: 1, DeviceID: "a", RSSI: -40, T: 0.2},
		{ObjID: 1, DeviceID: "a", RSSI: -70, T: 2.5}, // next window
		{ObjID: 1, DeviceID: "b", RSSI: -55, T: 1.0},
		{ObjID: 1, DeviceID: "a", RSSI: -60, T: 1.8},
		{ObjID: 1, DeviceID: "z", RSSI: -80, T: 1.9}, // unranked
	}
	ws := &windows{slotOf: map[windowKey]int{}}
	ws.build(ms, 2, newDeviceRanks([]string{"b", "a"}))
	if len(ws.order) != 3 || ws.nd != 2 {
		t.Fatalf("got %d windows over %d devices", len(ws.order), ws.nd)
	}
	type win struct {
		obj  int
		t    float64
		a, b float64
	}
	var got []win
	for _, slot := range ws.order {
		a, _ := ws.mean(slot, 0)
		b, _ := ws.mean(slot, 1)
		got = append(got, win{ws.keys[slot].obj, ws.t(slot), a, b})
	}
	want := []win{{1, 1, -50, -55}, {1, 3, -70, 0}, {2, 1, -45, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %+v, want %+v", got, want)
	}
	if _, heard := ws.mean(ws.order[1], 1); heard {
		t.Error("device b reported heard in a window it was not")
	}
	if len(ws.extra) != 1 || ws.extra[0].id != "z" || ws.extra[0].slot != ws.order[0] || ws.extra[0].sum != -80 {
		t.Errorf("extra = %+v", ws.extra)
	}
}

func TestDuplicateDeviceIDsRejected(t *testing.T) {
	d1 := &device.Device{ID: "same"}
	d2 := &device.Device{ID: "same"}
	if _, err := NewProximity([]*device.Device{d1, d2}, ProximityConfig{}); err == nil {
		t.Error("duplicate device IDs accepted")
	}
}
