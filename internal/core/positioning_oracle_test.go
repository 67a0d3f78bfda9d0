package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vita/internal/device"
	"vita/internal/positioning"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
	"vita/internal/trajectory"
)

// wholeRunPositioning is the positioning stage as it ran before it moved into
// the RSSI workers: one pass of the method over every measurement of the
// run, re-sorted by (object, time, device). It is kept as the oracle the
// fused per-object stage must reproduce exactly.
func wholeRunPositioning(c PositioningMethodController, t *topo.Topology, devs []*device.Device, ds *Dataset, r *rng.Rand) error {
	ms := slices.Clone(ds.RSSI)
	slices.SortFunc(ms, func(a, b rssi.Measurement) int {
		return cmp.Or(cmp.Compare(a.ObjID, b.ObjID), cmp.Compare(a.T, b.T), strings.Compare(a.DeviceID, b.DeviceID))
	})
	switch c.Config.Method {
	case "":
		return nil // positioning step skipped
	case "trilateration":
		tr, err := positioning.NewTrilateration(t, devs, positioning.TrilaterationConfig{
			Convert:        positioning.DefaultConversion(c.RSSI.model()),
			SampleInterval: c.Config.SampleInterval,
		})
		if err != nil {
			return err
		}
		est, err := tr.Estimate(ms)
		if err != nil {
			return err
		}
		ds.Estimates = append(ds.Estimates, est...)
		return nil
	case "fingerprint", "fingerprinting":
		algo, err := c.Config.algorithm()
		if err != nil {
			return err
		}
		rm, err := positioning.BuildRadioMap(t, devs, positioning.RadioMapConfig{
			Spacing: c.Config.Spacing,
			Model:   c.RSSI.model(),
		}, r)
		if err != nil {
			return err
		}
		ds.RadioMap = rm
		fp, err := positioning.NewFingerprinting(rm, devs, positioning.FingerprintConfig{
			Algorithm:      algo,
			K:              c.Config.K,
			SampleInterval: c.Config.SampleInterval,
		})
		if err != nil {
			return err
		}
		if algo == positioning.NaiveBayes {
			pe, err := fp.EstimateProbabilistic(ms)
			if err != nil {
				return err
			}
			ds.ProbEstimates = pe
			// Also materialize the argmax as deterministic records.
			est, err := fp.Estimate(ms)
			if err != nil {
				return err
			}
			ds.Estimates = append(ds.Estimates, est...)
			return nil
		}
		est, err := fp.Estimate(ms)
		if err != nil {
			return err
		}
		ds.Estimates = append(ds.Estimates, est...)
		return nil
	case "proximity":
		px, err := positioning.NewProximity(devs, c.RSSI.SampleInterval)
		if err != nil {
			return err
		}
		recs, err := px.Records(ms)
		if err != nil {
			return err
		}
		ds.Proximity = append(ds.Proximity, recs...)
		return nil
	default:
		return fmt.Errorf("core: unknown positioning method %q", c.Config.Method)
	}
}

// oracleWindow is the positioning period of the oracle runs (s).
const oracleWindow = 4

// oracleConfig is a run built to reach the corners of per-object
// positioning: objects arrive mid-run, floor 1 has a few short-range devices
// (so an object can live there unheard), and objects take the staircase, so
// some positioning window hears devices on both floors.
// TestFusedPositioningMatchesWholeRun checks that each of these occurs.
func oracleConfig(pc PositioningConfig, p int) func(*Config) {
	return func(c *Config) {
		c.Parallelism = p
		c.Trajectory.Duration = 180
		c.Objects.Count = 12
		c.Objects.MinLifespan = 40
		c.Objects.MaxLifespan = 180
		c.Objects.ArrivalRate = 0.05
		c.Devices = []DeviceConfig{
			{Floor: 0, Model: "coverage", Type: "wifi", Count: 10},
			{Floor: 1, Model: "coverage", Type: "wifi", Count: 4, DetectionRange: 5},
		}
		c.Positioning = pc
		c.Positioning.SampleInterval = oracleWindow
	}
}

// memorySink keeps what a run hands a sink: the RSSI rows and the derived
// tables.
type memorySink struct {
	rssi      []rssi.Measurement
	estimates []positioning.Estimate
	proximity []positioning.ProximityRecord
}

func (s *memorySink) Trajectory(trajectory.Sample) error { return nil }
func (s *memorySink) RSSI(m rssi.Measurement) error      { s.rssi = append(s.rssi, m); return nil }
func (s *memorySink) Estimates(es []positioning.Estimate) error {
	s.estimates = es
	return nil
}
func (s *memorySink) Proximity(rs []positioning.ProximityRecord) error {
	s.proximity = rs
	return nil
}
func (s *memorySink) Close() error { return nil }

func runPipelineTo(t *testing.T, sink Sink, mutate func(*Config)) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	mutate(&cfg)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunTo(sink)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFusedPositioningMatchesWholeRun: the positioning outputs the pipeline
// computes per object inside the RSSI workers are deep-equal to one
// whole-run pass over the re-sorted measurements, for every method, at
// every worker count, with and without a sink. It also pins the orders the
// Dataset's tables are appended in, which nothing sorts afterwards: RSSI
// rows as a sink receives them, estimates by (object, time), proximity
// records by (object, device, start); and a sink is handed the Dataset's
// own tables, empty but not nil when a method produced nothing.
func TestFusedPositioningMatchesWholeRun(t *testing.T) {
	methods := []struct {
		name string
		pc   PositioningConfig
	}{
		{"trilateration", PositioningConfig{Method: "trilateration"}},
		{"fingerprint-knn", PositioningConfig{Method: "fingerprint", Algorithm: "knn"}},
		{"fingerprint-bayes", PositioningConfig{Method: "fingerprint", Algorithm: "bayes", K: 4}},
		{"proximity", PositioningConfig{Method: "proximity"}},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			base := runPipeline(t, oracleConfig(m.pc, 1))
			checkOracleCoverage(t, base)

			// The oracle draws the radio map from the fourth split of the
			// seed's stream (devices, objects, RSSI, positioning), as the
			// pipeline always has.
			cfg := DefaultConfig()
			oracleConfig(m.pc, 1)(&cfg)
			r := rng.New(cfg.Seed)
			r.Split()
			r.Split()
			r.Split()
			want := &Dataset{RSSI: base.RSSI, Estimates: []positioning.Estimate{}, Proximity: []positioning.ProximityRecord{}}
			pmc := PositioningMethodController{Config: cfg.Positioning, RSSI: cfg.RSSI}
			if err := wholeRunPositioning(pmc, base.Topo, base.Devices, want, r.Split()); err != nil {
				t.Fatal(err)
			}
			slices.SortStableFunc(want.Estimates, byObjectTime)
			slices.SortStableFunc(want.Proximity, byObjectDeviceStart)
			if len(want.Estimates)+len(want.ProbEstimates)+len(want.Proximity) == 0 {
				t.Fatal("the oracle produced no positioning output: the comparison would be vacuous")
			}
			if m.pc.Algorithm == "bayes" && len(want.ProbEstimates) == 0 {
				t.Fatal("naive Bayes oracle produced no probabilistic estimates")
			}

			for _, p := range []int{1, 2, 8} {
				for _, withSink := range []bool{false, true} {
					var sink *memorySink
					var ds *Dataset
					if withSink {
						sink = &memorySink{}
						ds = runPipelineTo(t, sink, oracleConfig(m.pc, p))
					} else {
						ds = runPipelineTo(t, nil, oracleConfig(m.pc, p))
					}
					where := fmt.Sprintf("p=%d sink=%v", p, withSink)
					if !slices.IsSortedFunc(ds.Estimates, byObjectTime) {
						t.Errorf("%s: estimates not in (object, time) order", where)
					}
					if !slices.IsSortedFunc(ds.Proximity, byObjectDeviceStart) {
						t.Errorf("%s: proximity records not in (object, device, start) order", where)
					}
					if got, w := ds.Estimates, want.Estimates; !reflect.DeepEqual(got, w) {
						t.Errorf("%s: %d estimates differ from the whole-run pass (%d)", where, len(got), len(w))
					}
					if !reflect.DeepEqual(ds.ProbEstimates, want.ProbEstimates) {
						t.Errorf("%s: %d probabilistic estimates differ from the whole-run pass (%d)",
							where, len(ds.ProbEstimates), len(want.ProbEstimates))
					}
					if got, w := ds.Proximity, want.Proximity; !reflect.DeepEqual(got, w) {
						t.Errorf("%s: %d proximity records differ from the whole-run pass (%d)", where, len(got), len(w))
					}
					if !reflect.DeepEqual(ds.RadioMap, want.RadioMap) {
						t.Errorf("%s: radio map differs from the whole-run pass", where)
					}
					if !withSink {
						if !reflect.DeepEqual(ds.RSSI, base.RSSI) {
							t.Errorf("%s: %d RSSI rows differ from the p=1 run's (%d)", where, len(ds.RSSI), len(base.RSSI))
						}
						continue
					}
					if !reflect.DeepEqual(sink.rssi, base.RSSI) {
						t.Errorf("%s: the sink took %d RSSI rows other than Run kept (%d)", where, len(sink.rssi), len(base.RSSI))
					}
					if !reflect.DeepEqual(sink.estimates, ds.Estimates) || !reflect.DeepEqual(sink.estimates, want.Estimates) {
						t.Errorf("%s: the sink was handed other estimates", where)
					}
					if !reflect.DeepEqual(sink.proximity, ds.Proximity) || !reflect.DeepEqual(sink.proximity, want.Proximity) {
						t.Errorf("%s: the sink was handed other proximity records", where)
					}
				}
			}
		})
	}
	t.Run("none", func(t *testing.T) {
		sink := &memorySink{}
		runPipelineTo(t, sink, oracleConfig(PositioningConfig{}, 2))
		if sink.estimates == nil || len(sink.estimates) != 0 || sink.proximity == nil || len(sink.proximity) != 0 {
			t.Errorf("a run without positioning handed the sink estimates %#v and proximity %#v, want two empty non-nil tables",
				sink.estimates, sink.proximity)
		}
	})
}

func byObjectTime(a, b positioning.Estimate) int {
	return cmp.Or(cmp.Compare(a.ObjID, b.ObjID), cmp.Compare(a.T, b.T))
}

func byObjectDeviceStart(a, b positioning.ProximityRecord) int {
	return cmp.Or(cmp.Compare(a.ObjID, b.ObjID), strings.Compare(a.DeviceID, b.DeviceID), cmp.Compare(a.TS, b.TS))
}

// checkOracleCoverage fails unless the run holds the cases per-object
// positioning could get wrong: an object born mid-run, an object no device
// ever heard, and a positioning window whose measurements come from devices
// on two floors (the object took the stairs inside it).
func checkOracleCoverage(t *testing.T, ds *Dataset) {
	t.Helper()
	heard := map[int]bool{}
	type window struct {
		obj int
		idx float64
	}
	floors := map[window]map[int]bool{}
	floorOf := map[string]int{}
	for _, d := range ds.Devices {
		floorOf[d.ID] = d.Floor
	}
	for _, m := range ds.RSSI {
		heard[m.ObjID] = true
		w := window{m.ObjID, math.Floor(m.T / oracleWindow)}
		if floors[w] == nil {
			floors[w] = map[int]bool{}
		}
		floors[w][floorOf[m.DeviceID]] = true
	}
	lateBirth, unheard, twoFloors := false, false, false
	for _, id := range ds.Trajectories.Objects() {
		if s := ds.Trajectories.Series(id); s[0].T > 0 {
			lateBirth = true
		}
		if !heard[id] {
			unheard = true
		}
	}
	for _, fl := range floors {
		if len(fl) > 1 {
			twoFloors = true
		}
	}
	if !lateBirth || !unheard || !twoFloors {
		t.Fatalf("oracle run lacks a case: mid-run arrival %v, unheard object %v, two-floor window %v",
			lateBirth, unheard, twoFloors)
	}
}

// TestRunToSinkRetainsNoRSSI: a run with a sink leaves the RSSI rows with
// the sink and counts them; a run without one keeps them all.
func TestRunToSinkRetainsNoRSSI(t *testing.T) {
	mutate := oracleConfig(PositioningConfig{Method: "trilateration"}, 2)
	sink := &memorySink{}
	ds := runPipelineTo(t, sink, mutate)
	if ds.RSSI != nil {
		t.Errorf("RunTo(sink) kept %d RSSI rows", len(ds.RSSI))
	}
	if ds.RSSICount != len(sink.rssi) || len(sink.rssi) == 0 {
		t.Errorf("RSSICount %d, the sink received %d rows (want equal, > 0)", ds.RSSICount, len(sink.rssi))
	}
	kept := runPipelineTo(t, nil, mutate)
	if len(kept.RSSI) != kept.RSSICount || kept.RSSICount != len(sink.rssi) {
		t.Errorf("Run kept %d rows and counted %d, RunTo(sink) streamed %d", len(kept.RSSI), kept.RSSICount, len(sink.rssi))
	}
}
