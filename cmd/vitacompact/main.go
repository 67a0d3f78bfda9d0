// Command vitacompact merges the accumulated segments of a live dataset's
// segment logs into single large segments re-blocked in global order, so
// zone maps tighten back up and scans touch one file per log instead of
// many:
//
//	vitacompact -data out                 # compact out/seglog/{trajectory,rssi}
//	vitacompact -data out/seglog/trajectory  # compact one log directly
//	vitacompact -data out -min-segments 8    # only merge once 8 pile up
//
// The merged segment is written under the default block codec (vsnap), so
// compacting a flate-era log rewrites it under vsnap.
//
// Compaction is crash-safe: the merged segment builds under a temporary
// name, the swap is one manifest journal record, as a segment's seal is, and
// a process killed mid-merge leaves the log — and every query against it —
// untouched. It is a log
// mutation, so run it only when no other writer or compactor has the log
// (readers, including a running vitaserve, are unaffected and pick up the
// merge on their next manifest refresh).
package main

import (
	"flag"
	"fmt"
	"os"

	"vita/internal/colstore"
	"vita/internal/obs"
	"vita/internal/seglog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vitacompact:", err)
		os.Exit(1)
	}
}

func run() error {
	dataDir := flag.String("data", "out", "dataset directory (or a segment log directory)")
	minSegments := flag.Int("min-segments", 2, "merge only when at least this many segments are live")
	logOpts := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(os.Stderr); err != nil {
		return err
	}

	var logDirs []string
	if seglog.IsLog(*dataDir) {
		logDirs = []string{*dataDir}
	} else {
		for _, kind := range []colstore.Kind{colstore.KindTrajectory, colstore.KindRSSI} {
			if p := seglog.LogDir(*dataDir, kind); seglog.IsLog(p) {
				logDirs = append(logDirs, p)
			}
		}
	}
	if len(logDirs) == 0 {
		return fmt.Errorf("no segment log at %s, %s or %s", *dataDir,
			seglog.LogDir(*dataDir, colstore.KindTrajectory), seglog.LogDir(*dataDir, colstore.KindRSSI))
	}

	for _, dir := range logDirs {
		l, err := seglog.Open(dir)
		if err != nil {
			return err
		}
		if swept, err := l.SweepOrphans(); err != nil {
			return err
		} else if swept > 0 {
			fmt.Printf("%s: swept %d orphan file(s)\n", dir, swept)
		}
		before := len(l.Snapshot().Segments)
		meta, err := seglog.NewCompactor(l, seglog.CompactorOptions{
			MinSegments: *minSegments,
		}).RunOnce()
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		if meta == nil {
			fmt.Printf("%s: %d segment(s), below -min-segments %d; nothing to do\n", dir, before, *minSegments)
			continue
		}
		fmt.Printf("%s: merged %d segments into %s (%d rows, %d bytes, level %d)\n",
			dir, before, meta.File, meta.Rows, meta.Bytes, meta.Level)
	}
	return nil
}
