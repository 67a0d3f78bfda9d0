package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"slices"
	"testing"

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
