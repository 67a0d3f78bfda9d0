package core

import "testing"

// TestMallRoutesNeverFail pins the engine's planned trips on the mall, the
// office and the clinic: at the default configuration every destination an
// object picks is reachable, so every route it plans succeeds.
func TestMallRoutesNeverFail(t *testing.T) {
	for _, src := range []string{"synthetic:mall", "synthetic:office", "synthetic:clinic"} {
		for _, seed := range []uint64{1, 7, 42} {
			cfg := DefaultConfig()
			cfg.Building.Source = src
			cfg.Seed = seed
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
			st := ds.TrajectoryStats
			if st.RoutesPlanned == 0 || st.RouteFailures != 0 {
				t.Errorf("%s seed %d: %d routes planned, %d failed; want some planned and none failed",
					src, seed, st.RoutesPlanned, st.RouteFailures)
			}
		}
	}
}
