package seglog

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// logSamples is a deterministic time-ordered stream (ties by object ID) —
// the order the generation pipeline delivers.
func logSamples(n int) []trajectory.Sample {
	var out []trajectory.Sample
	parts := []string{"lobby", "office-a", "corridor"}
	for t := 0; len(out) < n; t++ {
		for o := 0; o < 4 && len(out) < n; o++ {
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc: model.At("hq", o%2, parts[(o+t)%len(parts)],
					geom.Pt(float64((t*7+o)%30), float64((t*3+o)%15))),
				T: float64(t),
			})
		}
	}
	return out
}

// logMeasurements is a deterministic object-grouped stream — the order the
// RSSI generator replays.
func logMeasurements(n int) []rssi.Measurement {
	var out []rssi.Measurement
	for o := 0; len(out) < n; o++ {
		for t := 0; t < 7 && len(out) < n; t++ {
			out = append(out, rssi.Measurement{
				ObjID: o, DeviceID: "dev-" + string(rune('a'+t%3)),
				RSSI: -40 - float64((o*t)%30), T: float64(t),
			})
		}
	}
	return out
}

func sampleEqual(a, b trajectory.Sample) bool {
	return a.ObjID == b.ObjID && a.Loc == b.Loc &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

// writeLog streams samples into a fresh trajectory log in dir, rolling every
// maxRows rows, and returns the log.
func writeLog(t *testing.T, dir string, samples []trajectory.Sample, maxRows int) *Log {
	t.Helper()
	l, err := OpenOrCreate(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{
		MaxSegmentRows: maxRows,
		Block:          colstore.Options{BlockSize: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return l
}

// readFile returns every row of the file at path, read through
// storage.OpenCursor as kind k.
func readFile[T any, B colstore.RowBatch[T]](t *testing.T, k *storage.Kind[B], path string) []T {
	t.Helper()
	cur, _, err := storage.OpenCursor(k, path, colstore.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	var out []T
	for cur.Next() {
		b := cur.Batch()
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// readLog decodes every live segment in manifest order and concatenates.
func readLog(t *testing.T, l *Log) []trajectory.Sample {
	t.Helper()
	var out []trajectory.Sample
	for _, m := range l.Snapshot().Segments {
		out = append(out, readFile[trajectory.Sample](t, storage.Trajectory, l.SegmentPath(m))...)
	}
	return out
}

func TestWriterRollsAndRoundTrips(t *testing.T) {
	samples := logSamples(1000)
	l := writeLog(t, t.TempDir(), samples, 96)

	man := l.Snapshot()
	wantSegs := (len(samples) + 95) / 96
	if len(man.Segments) != wantSegs {
		t.Fatalf("segments = %d, want %d", len(man.Segments), wantSegs)
	}
	if man.Rows() != len(samples) {
		t.Fatalf("manifest rows = %d, want %d", man.Rows(), len(samples))
	}
	for i, m := range man.Segments {
		if m.Rows == 0 || m.Bytes == 0 {
			t.Fatalf("segment %d has empty meta: %+v", i, m)
		}
		if m.T0 > m.T1 {
			t.Fatalf("segment %d time span inverted: %+v", i, m)
		}
		if m.Level != 0 {
			t.Fatalf("fresh segment %d at level %d", i, m.Level)
		}
	}
	got := readLog(t, l)
	if len(got) != len(samples) {
		t.Fatalf("round trip %d rows, want %d", len(got), len(samples))
	}
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got[i], samples[i])
		}
	}
}

func TestWriterByteThresholdRolls(t *testing.T) {
	l, err := Create(t.TempDir(), colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny blocks + tiny byte budget force a roll roughly every block.
	w, err := NewTrajectoryWriter(l, WriterOptions{
		MaxSegmentBytes: 1 << 10,
		Block:           colstore.Options{BlockSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range logSamples(400) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.Snapshot().Segments); n < 2 {
		t.Fatalf("byte threshold never rolled: %d segments", n)
	}
}

func TestWriterResumesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(300)
	writeLog(t, dir, samples[:150], 64)

	// A second process opens the same log and appends.
	l2, err := OpenOrCreate(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l2, WriterOptions{MaxSegmentRows: 64, Block: colstore.Options{BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[150:] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	man := l2.Snapshot()
	seen := map[uint64]bool{}
	for _, m := range man.Segments {
		if seen[m.ID] {
			t.Fatalf("segment ID %d reused", m.ID)
		}
		seen[m.ID] = true
	}
	got := readLog(t, l2)
	if len(got) != len(samples) {
		t.Fatalf("resumed log holds %d rows, want %d", len(got), len(samples))
	}
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d mismatch after resume", i)
		}
	}
}

func TestOpenIgnoresCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(200)
	l := writeLog(t, dir, samples, 64)
	man := l.Snapshot()

	// Simulate a crash mid-mutation: a partial segment tmp, a fully written
	// but uncommitted segment, and a torn manifest tmp.
	if err := os.WriteFile(filepath.Join(dir, segName(99)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, segName(98))
	if err := os.WriteFile(orphan, []byte("VTB1 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName+".tmp"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh reader recovers to the last consistent snapshot.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man2 := l2.Snapshot()
	if man2.Generation != man.Generation || len(man2.Segments) != len(man.Segments) {
		t.Fatalf("recovered manifest differs: gen %d/%d, %d/%d segments",
			man2.Generation, man.Generation, len(man2.Segments), len(man.Segments))
	}
	got := readLog(t, l2)
	if len(got) != len(samples) {
		t.Fatalf("recovered rows = %d, want %d", len(got), len(samples))
	}

	// The next mutator sweeps the artifacts.
	w, err := NewTrajectoryWriter(l2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	for _, leftover := range []string{segName(99) + ".tmp", segName(98), ManifestName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep", leftover)
		}
	}
}

func TestWriterAbortKeepsSealedPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	samples := logSamples(150)
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 64, Block: colstore.Options{BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	// 150 rows = 2 sealed segments + 22 rows in flight; Abort drops those.
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	got := readLog(t, l)
	if len(got) != 128 {
		t.Fatalf("aborted log holds %d rows, want the sealed 128", len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("abort left %s behind", e.Name())
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, colstore.KindRSSI); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrajectoryWriter(l, WriterOptions{}); err == nil {
		t.Fatal("trajectory writer accepted an rssi log")
	}
	if _, err := OpenOrCreate(dir, colstore.KindTrajectory); err == nil {
		t.Fatal("OpenOrCreate accepted a kind mismatch")
	}
}
