package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vita/internal/ifc"
	"vita/internal/model"
)

// TestGeneratorDigests pins the generator's bytes on all three synthetic
// buildings: for each positioning method at seed 1, a SHA-256 over every
// trajectory, RSSI, estimate, probabilistic-estimate and proximity row, and
// over EvaluateEstimates' result, with every float written exactly (%x). A
// refactor that means to keep the output must leave each digest as it is.
func TestGeneratorDigests(t *testing.T) {
	want := map[string]string{
		"synthetic:office/trilateration":     "5131c8849a518e97bc36bf5d4df24e0117607cc8c7ec0fb7a5fa4396b1ef7168",
		"synthetic:office/fingerprint-knn":   "e0c41e386d2448a9c22450e8f9f52c454f1dabf7c1295266c70fd1e76a1feab9",
		"synthetic:office/fingerprint-bayes": "fb6720dd9f42d74d3972ee6651748dbed88646adcf0f9f3545968ba15f6c6116",
		"synthetic:office/proximity":         "29faa7cdf206d088d77956371cf87af12c69549fb7532453f97a507c81c4037d",
		"synthetic:mall/trilateration":       "96682a5150fc646239076bfd01f7bcee9215a628d5e5e0d00a0c18cbff0373eb",
		"synthetic:mall/fingerprint-knn":     "2dd0f1c90ceb6e51e35c85897c87065bb71c94c227987c39ba2558210c3c14b6",
		"synthetic:mall/fingerprint-bayes":   "277b91a45b26a7a6aff6339ae7de5b4187aaf46f53b7368fcfbe727f301b5940",
		"synthetic:mall/proximity":           "71372b6a8f21459c44b37d1e1d7641596f3e08d8163e19b5cb5994ada7950db6",
		"synthetic:clinic/trilateration":     "6f8b79478920faabb1805d84d8e34f7aa34c07d659d5c6d8d84933e0492ec29e",
		"synthetic:clinic/fingerprint-knn":   "ef8f9cdf4dcebddfd17ee569979b39ea4258259a60520cb7350545709cdceedb",
		"synthetic:clinic/fingerprint-bayes": "97e52a107127efa34bf0f2b7962aef9d841ba9105d36cdcaf818e2d71975638e",
		"synthetic:clinic/proximity":         "3bb428893fef8f6762173831f378c5df62267809356dd4ca7d6d5ab8238d70e1",
	}
	methods := []struct {
		name string
		cfg  PositioningConfig
	}{
		{"trilateration", PositioningConfig{Method: "trilateration"}},
		{"fingerprint-knn", PositioningConfig{Method: "fingerprint", Algorithm: "knn"}},
		{"fingerprint-bayes", PositioningConfig{Method: "fingerprint", Algorithm: "bayes"}},
		{"proximity", PositioningConfig{Method: "proximity"}},
	}
	for _, src := range []string{"synthetic:office", "synthetic:mall", "synthetic:clinic"} {
		for _, m := range methods {
			cfg := DefaultConfig()
			cfg.Building.Source = src
			cfg.Positioning = m.cfg
			if src == "synthetic:clinic" {
				cfg.Devices = cfg.Devices[:1] // the clinic has one floor
			}
			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			key := src + "/" + m.name
			if got := rowDigest(ds); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// rowDigest hashes a run's rows in the order the run keeps them.
func rowDigest(ds *Dataset) string {
	h := sha256.New()
	loc := func(h hash.Hash, l model.Location) {
		fmt.Fprintf(h, " %s %d %s %x %x %t", l.Building, l.Floor, l.Partition, l.Point.X, l.Point.Y, l.HasPoint)
	}
	for _, s := range slices.Concat(ds.Trajectories...) {
		fmt.Fprintf(h, "s %d %x", s.ObjID, s.T)
		loc(h, s.Loc)
		fmt.Fprintln(h)
	}
	for _, m := range ds.RSSI {
		fmt.Fprintf(h, "r %d %s %x %x\n", m.ObjID, m.DeviceID, m.RSSI, m.T)
	}
	for _, e := range ds.Estimates {
		fmt.Fprintf(h, "e %d %x", e.ObjID, e.T)
		loc(h, e.Loc)
		fmt.Fprintln(h)
	}
	for _, e := range ds.ProbEstimates {
		fmt.Fprintf(h, "p %d %x", e.ObjID, e.T)
		for _, c := range e.Candidates {
			fmt.Fprintf(h, " %x", c.Prob)
			loc(h, c.Loc)
		}
		fmt.Fprintln(h)
	}
	for _, r := range ds.Proximity {
		fmt.Fprintf(h, "x %d %s %x %x\n", r.ObjID, r.DeviceID, r.TS, r.TE)
	}
	stats, floorMiss := EvaluateEstimates(ds.Trajectories, ds.Estimates)
	fmt.Fprintf(h, "eval %d %x %x %x %x %d\n", stats.N, stats.Mean, stats.Median, stats.P95, stats.Max, floorMiss)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFloorLevelsOffZero pins runs on a file: office whose storeys are
// levels −1 and 2, with devices on both: a floor's level is its name, never
// its position among the building's floors. Walkers head for destinations
// by minimum distance, and wander through random doors by minimum time.
// The digests cover the trajectory and RSSI rows as rowDigest does.
func TestFloorLevelsOffZero(t *testing.T) {
	r := strings.NewReplacer("'Office Floor 0',0,", "'Office Floor 0',-1,", "'Office Floor 1',1,", "'Office Floor 1',2,")
	text := r.Replace(ifc.OfficeIFC())
	if strings.Count(text, "'Office Floor") != 2 || !strings.Contains(text, ",-1,") || !strings.Contains(text, "'Office Floor 1',2,") {
		t.Fatal("storey levels not rewritten")
	}
	path := filepath.Join(t.TempDir(), "levels.ifc")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		intention, routing, want string
	}{
		{"destination", "min-distance", "4244c5c5cea260b1e9642e6e0bf157439879f946a3e718281915aa3664acbf05"},
		{"random-way", "min-time", "5a6be9529ab502ac191b95f3aa8dab2d3aeff3f8a0690b345234af98f541ca0d"},
	} {
		cfg := DefaultConfig()
		cfg.Building.Source = "file:" + path
		cfg.Devices = []DeviceConfig{
			{Floor: -1, Model: "coverage", Type: "wifi", Count: 8},
			{Floor: 2, Model: "check-point", Type: "wifi", Count: 8},
		}
		cfg.Objects.Intention, cfg.Objects.Routing = tc.intention, tc.routing
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		samples := make(map[int]int)
		for _, s := range slices.Concat(ds.Trajectories...) {
			samples[s.Loc.Floor]++
		}
		heard := make(map[int]int)
		floorOf := make(map[string]int)
		for _, d := range ds.Devices {
			floorOf[d.ID] = d.Floor
		}
		for _, m := range ds.RSSI {
			heard[floorOf[m.DeviceID]]++
		}
		if len(samples) != 2 || samples[-1] == 0 || samples[2] == 0 || len(heard) != 2 || heard[-1] == 0 || heard[2] == 0 {
			t.Errorf("%s: samples per level %v and RSSI rows per device level %v; want both on levels -1 and 2 only", tc.intention, samples, heard)
		}
		if st := ds.TrajectoryStats; st.RouteFailures != 0 {
			t.Errorf("%s: %d of %d routes failed", tc.intention, st.RouteFailures, st.RoutesPlanned)
		}
		if got := rowDigest(ds); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.intention, got, tc.want)
		}
	}
}
