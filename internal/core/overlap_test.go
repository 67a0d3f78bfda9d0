package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/seglog"
	"vita/internal/trajectory"
)

// The stages of a sink run overlap: the RSSI replay starts once every object
// is simulated, while the merge still drains trajectory rows into the sink.
// These tests fail each stream while the other is busy and check that RunTo
// reports the first failure with its stream, leaves no goroutine behind, and
// leaves a segment log that reopens.

var errDiskFull = errors.New("disk full")

// overlapConfig is a small run whose last object is born late, so the merge
// still has rows to drain when the RSSI replay starts.
func overlapConfig(c *Config) {
	c.Trajectory.Duration = 180
	c.Objects.Count = 12
	c.Objects.MinLifespan = 60
	c.Objects.MaxLifespan = 180
	c.Objects.ArrivalRate = 0.05
	c.Positioning = PositioningConfig{Method: "trilateration"}
}

// faultSink fails one stream and slows the trajectory stream down, so the
// two streams overlap whatever the machine's speed. It counts the rows each
// stream delivered. failTraj > 0 fails every trajectory row from that one on
// that arrives after an RSSI row; failRSSI > 0 fails every RSSI row from that
// one on. A nil inner sink keeps nothing.
type faultSink struct {
	inner              Sink
	failTraj, failRSSI int
	traj, rssi         atomic.Int64
}

func (s *faultSink) Trajectory(sm trajectory.Sample) error {
	n := int(s.traj.Add(1))
	if n%64 == 0 && s.rssi.Load() == 0 {
		time.Sleep(time.Millisecond) // hold the merge back until RSSI rows flow
	}
	if s.failTraj > 0 && n >= s.failTraj && s.rssi.Load() > 0 {
		return errDiskFull
	}
	if s.inner == nil {
		return nil
	}
	return s.inner.Trajectory(sm)
}

func (s *faultSink) RSSI(m rssi.Measurement) error {
	if n := int(s.rssi.Add(1)); s.failRSSI > 0 && n >= s.failRSSI {
		return errDiskFull
	}
	if s.inner == nil {
		return nil
	}
	return s.inner.RSSI(m)
}

func (s *faultSink) Estimates(es []positioning.Estimate) error {
	if s.inner == nil {
		return nil
	}
	return s.inner.Estimates(es)
}

func (s *faultSink) Proximity(rs []positioning.ProximityRecord) error {
	if s.inner == nil {
		return nil
	}
	return s.inner.Proximity(rs)
}

func (s *faultSink) Close() error {
	if s.inner == nil {
		return nil
	}
	return s.inner.Close()
}

// settleGoroutines waits until the goroutine count is back to base, failing
// the test if it is not within a few seconds.
func settleGoroutines(t *testing.T, base int, where string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines outlive the run (baseline %d):\n%s",
				where, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// reopenLogs opens both segment logs of dir as a reader would after a crash.
func reopenLogs(t *testing.T, dir string) {
	t.Helper()
	for _, d := range []string{seglog.LogDir(dir, colstore.KindTrajectory), seglog.LogDir(dir, colstore.KindRSSI)} {
		l, err := seglog.Open(d)
		if err != nil {
			t.Fatalf("reopen %s after Discard: %v", d, err)
		}
		for _, seg := range l.Snapshot().Segments {
			if _, err := os.Stat(l.SegmentPath(seg)); err != nil {
				t.Fatalf("%s names a missing segment: %v", d, err)
			}
		}
	}
}

// TestRunToFailuresUnderOverlap: a trajectory sink that fails while RSSI
// rows are flowing, an RSSI sink that fails while the merge is still
// draining, and a trajectory engine that fails before the RSSI stage began
// each end RunTo with that error, prefixed with its stream, with every
// goroutine of the run gone — into a memory sink and into a segment log that
// reopens after Discard.
func TestRunToFailuresUnderOverlap(t *testing.T) {
	trajRows := runPipelineTo(t, &memorySink{}, overlapConfig).TrajectoryStats.Samples
	cases := []struct {
		name       string
		mutate     func(*Config)
		failTraj   int
		failRSSI   int
		wantPrefix string
		wantErr    error
	}{
		{"trajectory sink fails while RSSI runs", overlapConfig, trajRows / 2, 0,
			"core: trajectory sink:", errDiskFull},
		{"rssi sink fails while the merge drains", overlapConfig, 0, 40,
			"core: rssi sink:", errDiskFull},
		{"trajectory engine fails before RSSI", func(c *Config) {
			overlapConfig(c)
			c.Trajectory.Tick = -1
		}, 0, 0, "trajectory:", nil},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 8} {
			for _, logged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p=%d/seglog=%v", tc.name, p, logged), func(t *testing.T) {
					base := runtime.NumGoroutine()
					dir := t.TempDir()
					sink := &faultSink{failTraj: tc.failTraj, failRSSI: tc.failRSSI}
					var seg *SegmentedDirSink
					if logged {
						var err error
						if seg, err = NewSegmentedDirSink(dir, seglog.WriterOptions{
							MaxSegmentRows: 1000, Block: colstore.Options{BlockSize: 256},
						}); err != nil {
							t.Fatal(err)
						}
						sink.inner = seg
					}
					cfg := DefaultConfig()
					tc.mutate(&cfg)
					cfg.Parallelism = p
					pl, err := NewPipeline(cfg)
					if err != nil {
						t.Fatal(err)
					}
					_, err = pl.RunTo(sink)
					if err == nil || !strings.HasPrefix(err.Error(), tc.wantPrefix) {
						t.Fatalf("RunTo returned %v, want an error starting %q", err, tc.wantPrefix)
					}
					if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
						t.Fatalf("RunTo returned %v, want it to wrap %v", err, tc.wantErr)
					}
					switch {
					case tc.failTraj > 0 && sink.rssi.Load() == 0:
						t.Fatal("the trajectory sink failed before any RSSI row: the streams did not overlap")
					case tc.failRSSI > 0 && int(sink.traj.Load()) >= trajRows:
						t.Fatal("the RSSI sink failed after the last trajectory row: the streams did not overlap")
					}
					if seg == nil {
						settleGoroutines(t, base, "RunTo")
						return
					}
					if err := seg.Discard(); err != nil {
						t.Fatalf("discard: %v", err)
					}
					settleGoroutines(t, base, "RunTo and Discard")
					reopenLogs(t, dir)
				})
			}
		}
	}
}

// TestByteRolledSegmentLogDeterministic: a segment log rolled by size holds
// the same segments — names, row counts, sizes and bytes — on every run and at
// every worker count, however the background block encoding and the two
// streams interleave.
func TestByteRolledSegmentLogDeterministic(t *testing.T) {
	digest := func(p int) string {
		dir := t.TempDir()
		sink, err := NewSegmentedDirSink(dir, seglog.WriterOptions{
			MaxSegmentBytes: 4 << 10, Block: colstore.Options{BlockSize: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Building.Source = "synthetic:mall"
		cfg.Devices = []DeviceConfig{
			{Floor: 0, Model: "coverage", Type: "wifi", Count: 8},
			{Floor: 1, Model: "coverage", Type: "wifi", Count: 8},
		}
		cfg.Trajectory.Duration = 120
		cfg.Objects.Count = 10
		cfg.Objects.MinLifespan = 60
		cfg.Objects.MaxLifespan = 120
		cfg.Objects.ArrivalRate = 0.05
		cfg.Positioning = PositioningConfig{Method: "trilateration"}
		cfg.Parallelism = p
		pl, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.RunTo(sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range []string{seglog.LogDir(dir, colstore.KindTrajectory), seglog.LogDir(dir, colstore.KindRSSI)} {
			l, err := seglog.Open(d)
			if err != nil {
				t.Fatal(err)
			}
			segs := l.Snapshot().Segments
			if len(segs) < 3 {
				t.Fatalf("%s: %d segments; the byte threshold should roll several", d, len(segs))
			}
			for _, seg := range segs {
				raw, err := os.ReadFile(l.SegmentPath(seg))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				fmt.Fprintf(&b, "%s/%s rows=%d bytes=%d sha=%s\n",
					filepath.Base(d), seg.File, seg.Rows, seg.Bytes, hex.EncodeToString(sum[:8]))
			}
		}
		return b.String()
	}
	want := digest(1)
	for run, p := range []int{1, 1, 2, 2, 8, 8} {
		if got := digest(p); got != want {
			t.Fatalf("run %d at p=%d wrote other segments:\n%s\nthe first p=1 run wrote:\n%s", run, p, got, want)
		}
	}
}
