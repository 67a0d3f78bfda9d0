package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// teeSink records the exact record streams a wrapped sink was fed, so tests
// can compare file contents against precisely what the writer saw (the
// trajectory stream arrives in global time order — not the (object, time)
// order of TrajectoryStore.All — and the RSSI stream in the generator's
// object-grouped order).
type teeSink struct {
	inner   Sink
	samples []trajectory.Sample
	ms      []rssi.Measurement
}

func (ts *teeSink) Trajectory(s trajectory.Sample) error {
	ts.samples = append(ts.samples, s)
	return ts.inner.Trajectory(s)
}

func (ts *teeSink) RSSI(m rssi.Measurement) error {
	ts.ms = append(ts.ms, m)
	return ts.inner.RSSI(m)
}

func (ts *teeSink) Estimates(es []positioning.Estimate) error        { return ts.inner.Estimates(es) }
func (ts *teeSink) Proximity(rs []positioning.ProximityRecord) error { return ts.inner.Proximity(rs) }
func (ts *teeSink) Close() error                                     { return ts.inner.Close() }

// runToDir runs the small test pipeline at parallelism p, streaming into a
// DirSink of the given format, and returns the recorded streams plus the
// sink dir.
func runToDir(t *testing.T, p int, format storage.Format) (*teeSink, string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trajectory.Duration = 120
	cfg.Objects.Count = 10
	cfg.Objects.MinLifespan = 60
	cfg.Objects.MaxLifespan = 120
	cfg.Parallelism = p
	cfg.Positioning = PositioningConfig{Method: "trilateration"}

	dir := t.TempDir()
	sink, err := NewDirSink(dir, format)
	if err != nil {
		t.Fatalf("new sink: %v", err)
	}
	tee := &teeSink{inner: sink}
	pl, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	if _, err := pl.RunTo(tee); err != nil {
		t.Fatalf("run to sink: %v", err)
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("close sink: %v", err)
	}
	return tee, dir
}

// TestDirSinkVTBLosslessParallel is the acceptance round trip: at
// parallelism 1 and 8 the streamed VTB files must decode to exactly the
// samples the writer was fed (bit-for-bit), and both parallelism settings
// must produce byte-identical files.
func TestDirSinkVTBLosslessParallel(t *testing.T) {
	dirs := map[int]string{}
	for _, p := range []int{1, 8} {
		tee, dir := runToDir(t, p, storage.FormatVTB)
		dirs[p] = dir

		got, _, err := storage.ReadTrajectoryFile(filepath.Join(dir, "trajectory.vtb"))
		if err != nil {
			t.Fatalf("p=%d: read trajectory.vtb: %v", p, err)
		}
		want := tee.samples
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("p=%d: decoded %d samples, want %d (>0)", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("p=%d: sample %d differs after VTB round trip:\n got %+v\nwant %+v",
					p, i, got[i], want[i])
			}
		}

		gotM, _, err := storage.ReadRSSIFile(filepath.Join(dir, "rssi.vtb"))
		if err != nil {
			t.Fatalf("p=%d: read rssi.vtb: %v", p, err)
		}
		wantM := tee.ms
		if len(gotM) != len(wantM) || len(gotM) == 0 {
			t.Fatalf("p=%d: decoded %d measurements, want %d (>0)", p, len(gotM), len(wantM))
		}
		for i := range gotM {
			if gotM[i] != wantM[i] {
				t.Fatalf("p=%d: measurement %d differs after VTB round trip:\n got %+v\nwant %+v",
					p, i, gotM[i], wantM[i])
			}
		}
	}

	for _, name := range []string{"trajectory.vtb", "rssi.vtb"} {
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[8], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between parallelism 1 and 8 (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestDirSinkCSVMatchesBatchWriters guarantees the streaming CSV sink
// matches the batch writers applied to the same record stream byte for
// byte (the stream is globally time-ordered, which is also the order the
// sink files carry).
func TestDirSinkCSVMatchesBatchWriters(t *testing.T) {
	tee, dir := runToDir(t, 4, storage.FormatCSV)

	var wantTraj bytes.Buffer
	if err := storage.WriteTrajectoryCSV(&wantTraj, tee.samples); err != nil {
		t.Fatal(err)
	}
	gotTraj, err := os.ReadFile(filepath.Join(dir, "trajectory.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTraj, wantTraj.Bytes()) {
		t.Errorf("streamed trajectory.csv differs from batch writer output")
	}

	var wantRSSI bytes.Buffer
	if err := storage.WriteRSSICSV(&wantRSSI, tee.ms); err != nil {
		t.Fatal(err)
	}
	gotRSSI, err := os.ReadFile(filepath.Join(dir, "rssi.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRSSI, wantRSSI.Bytes()) {
		t.Errorf("streamed rssi.csv differs from batch writer output")
	}

	// The positioning method ran, so the derived table must exist.
	if _, err := os.Stat(filepath.Join(dir, "estimates.csv")); err != nil {
		t.Errorf("estimates.csv missing: %v", err)
	}
}

// TestRunToSinkErrorAborts: a failing sink must abort the run with its
// error, not silently drop data.
func TestRunToSinkErrorAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trajectory.Duration = 60
	cfg.Objects.Count = 4
	cfg.Objects.MinLifespan = 30
	cfg.Objects.MaxLifespan = 60
	cfg.Positioning = PositioningConfig{}
	pl, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RunTo(failingSink{}); err == nil {
		t.Fatal("RunTo with a failing sink succeeded")
	}
}

type failingSink struct{}

func (failingSink) Trajectory(trajectory.Sample) error { return fmt.Errorf("disk full") }
func (failingSink) RSSI(rssi.Measurement) error        { return fmt.Errorf("disk full") }
func (failingSink) Estimates([]positioning.Estimate) error {
	return nil
}
func (failingSink) Proximity([]positioning.ProximityRecord) error { return nil }
func (failingSink) Close() error                                  { return nil }

// TestDirSinkDiscardRemovesPartialOutputs: abandoning a failed run must not
// leave a footer-less VTB file behind to shadow valid data.
func TestDirSinkDiscardRemovesPartialOutputs(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir, storage.FormatVTB)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Trajectory(trajectory.Sample{ObjID: 1, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Discard(); err != nil {
		t.Fatalf("discard: %v", err)
	}
	for _, name := range []string{"trajectory.vtb", "rssi.vtb"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still exists after Discard (err=%v)", name, err)
		}
	}
}
