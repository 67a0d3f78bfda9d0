package storage_test

import (
	"bytes"
	"cmp"
	"strings"
	"testing"

	"vita/internal/core"
	"vita/internal/storage"
)

// The RSSI, estimate and proximity tables of a run are plain slices of
// core.Dataset, appended in the order a whole-run sort would give them, so
// nothing sorts them on the way to disk. These tests pin those orders on a
// small run and that the CSV files written from the tables read back in the
// same row order.

// runTables runs a short pipeline with the given positioning method.
func runTables(t *testing.T, method string) *core.Dataset {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Parallelism = 2
	cfg.Trajectory.Duration = 120
	cfg.Objects.Count = 8
	cfg.Objects.MinLifespan = 40
	cfg.Objects.MaxLifespan = 120
	cfg.Positioning = core.PositioningConfig{Method: method}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRSSIStore: Dataset.RSSI holds every measurement, ordered by object,
// then device in deployment order, then time; its CSV reads back row for row.
func TestRSSIStore(t *testing.T) {
	ds := runTables(t, "trilateration")
	if len(ds.RSSI) == 0 || len(ds.RSSI) != ds.RSSICount {
		t.Fatalf("%d measurements kept, %d counted", len(ds.RSSI), ds.RSSICount)
	}
	deployed := make(map[string]int, len(ds.Devices))
	for i, d := range ds.Devices {
		deployed[d.ID] = i
	}
	for i := 1; i < len(ds.RSSI); i++ {
		a, b := ds.RSSI[i-1], ds.RSSI[i]
		if cmp.Or(cmp.Compare(a.ObjID, b.ObjID), cmp.Compare(deployed[a.DeviceID], deployed[b.DeviceID]), cmp.Compare(a.T, b.T)) > 0 {
			t.Fatalf("row %d %+v after %+v: not in (object, device, time) order", i, b, a)
		}
	}
	var buf bytes.Buffer
	if err := storage.WriteRSSICSV(&buf, ds.RSSI); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadRSSICSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.RSSI) {
		t.Fatalf("CSV read back %d rows, wrote %d", len(back), len(ds.RSSI))
	}
	for i, m := range back {
		if m.ObjID != ds.RSSI[i].ObjID || m.DeviceID != ds.RSSI[i].DeviceID {
			t.Fatalf("CSV row %d is %+v, wrote %+v", i, m, ds.RSSI[i])
		}
	}
}

// TestEstimateStore: Dataset.Estimates is ordered by (object, time); its CSV
// reads back row for row.
func TestEstimateStore(t *testing.T) {
	ds := runTables(t, "trilateration")
	if len(ds.Estimates) == 0 {
		t.Fatal("no estimates")
	}
	for i := 1; i < len(ds.Estimates); i++ {
		a, b := ds.Estimates[i-1], ds.Estimates[i]
		if cmp.Or(cmp.Compare(a.ObjID, b.ObjID), cmp.Compare(a.T, b.T)) > 0 {
			t.Fatalf("row %d %+v after %+v: not in (object, time) order", i, b, a)
		}
	}
	var buf bytes.Buffer
	if err := storage.WriteEstimateCSV(&buf, ds.Estimates); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadEstimateCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.Estimates) {
		t.Fatalf("CSV read back %d rows, wrote %d", len(back), len(ds.Estimates))
	}
	for i, e := range back {
		if e.ObjID != ds.Estimates[i].ObjID || e.Loc.Partition != ds.Estimates[i].Loc.Partition {
			t.Fatalf("CSV row %d is %+v, wrote %+v", i, e, ds.Estimates[i])
		}
	}
}

// TestProximityStore: Dataset.Proximity is ordered by (object, device,
// start); its CSV reads back row for row.
func TestProximityStore(t *testing.T) {
	ds := runTables(t, "proximity")
	if len(ds.Proximity) == 0 {
		t.Fatal("no proximity records")
	}
	for i := 1; i < len(ds.Proximity); i++ {
		a, b := ds.Proximity[i-1], ds.Proximity[i]
		if cmp.Or(cmp.Compare(a.ObjID, b.ObjID), strings.Compare(a.DeviceID, b.DeviceID), cmp.Compare(a.TS, b.TS)) > 0 {
			t.Fatalf("row %d %+v after %+v: not in (object, device, start) order", i, b, a)
		}
	}
	var buf bytes.Buffer
	if err := storage.WriteProximityCSV(&buf, ds.Proximity); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadProximityCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.Proximity) {
		t.Fatalf("CSV read back %d rows, wrote %d", len(back), len(ds.Proximity))
	}
	for i, r := range back {
		if r.ObjID != ds.Proximity[i].ObjID || r.DeviceID != ds.Proximity[i].DeviceID {
			t.Fatalf("CSV row %d is %+v, wrote %+v", i, r, ds.Proximity[i])
		}
	}
}
