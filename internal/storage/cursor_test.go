package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// The cursor contract itself — rows, order, stats, Close, corruption, for
// every implementation and both row kinds — is pinned by internal/serve's
// TestCursorConformance. What stays here is what only this package's entry
// points decide: format detection, error paths, the single-input pass-through
// and the copy loop.

func cursorSamples() []trajectory.Sample {
	var out []trajectory.Sample
	for t := 0; t < 500; t++ {
		for o := 0; o < 6; o++ {
			out = append(out, trajectory.Sample{
				ObjID: o,
				Loc:   model.At("hq", o%2, []string{"lobby", "lab", "hall"}[o%3], geom.Pt(float64(t%40), float64(o))),
				T:     float64(t),
			})
		}
	}
	return out
}

func writeTrajectoryVTB(t *testing.T, path string, samples []trajectory.Sample) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := colstore.NewTrajectoryWriter(f, colstore.Options{BlockSize: 256})
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCursorReportsFormat: OpenCursor detects the encoding by content and
// says which it found.
func TestOpenCursorReportsFormat(t *testing.T) {
	samples := cursorSamples()
	dir := t.TempDir()
	vtbPath := filepath.Join(dir, "trajectory.dat")
	writeTrajectoryVTB(t, vtbPath, samples)
	csvPath := filepath.Join(dir, "trajectory.txt")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(NewTrajectoryCSVWriter, cf, samples); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]Format{vtbPath: FormatVTB, csvPath: FormatCSV} {
		cur, format, err := OpenCursor(Trajectory, path, colstore.Predicate{})
		if err != nil {
			t.Fatal(err)
		}
		if format != want {
			t.Errorf("%s: format = %s, want %s", path, format, want)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenCursorMissing covers the error paths: an absent file, alone and as
// one of several (the inputs already opened must not leak).
func TestOpenCursorMissing(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.vtb")
	if _, _, err := OpenCursor(Trajectory, missing, colstore.Predicate{}); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	present := filepath.Join(dir, "one.vtb")
	writeTrajectoryVTB(t, present, cursorSamples())
	if _, err := OpenCursorMulti(Trajectory, []string{present, missing}, colstore.Predicate{}); err == nil {
		t.Fatal("multi open with a missing file succeeded")
	}
}

// TestMergeSingleInputPassThrough: a one-path multi open must not wrap the
// cursor in merge machinery.
func TestMergeSingleInputPassThrough(t *testing.T) {
	samples := cursorSamples()
	p := filepath.Join(t.TempDir(), "one.vtb")
	writeTrajectoryVTB(t, p, samples)

	cur, err := OpenCursorMulti(Trajectory, []string{p}, colstore.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.(*mergeCursor[*colstore.TrajectoryBatch]); ok {
		t.Fatal("single input was wrapped in a merge cursor")
	}
	n := 0
	for cur.Next() {
		n += cur.Batch().Len()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("yielded %d rows, want %d", n, len(samples))
	}
}

// countingCursor counts the batches pulled through it.
type countingCursor struct {
	TrajectoryCursor
	batches int
}

func (c *countingCursor) Next() bool {
	ok := c.TrajectoryCursor.Next()
	if ok {
		c.batches++
	}
	return ok
}

// failingWriter accepts rows until the k-th, which it refuses.
type failingWriter struct {
	k, written int
	closed     bool
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(trajectory.Sample) error {
	if w.written == w.k {
		return errDiskFull
	}
	w.written++
	return nil
}

func (w *failingWriter) Close() error {
	w.closed = true
	return nil
}

// TestCopyStopsAtWriteError pins the copy loop every conversion and
// compaction runs on: it reports the rows written and the first error, and
// once a Write fails it pulls no further batch from the input — a full disk
// must not cost a decode of the rest of the file.
func TestCopyStopsAtWriteError(t *testing.T) {
	samples := cursorSamples() // 3000 rows in 256-row blocks
	p := filepath.Join(t.TempDir(), "in.vtb")
	writeTrajectoryVTB(t, p, samples)
	open := func() *countingCursor {
		cur, _, err := OpenCursor(Trajectory, p, colstore.Predicate{})
		if err != nil {
			t.Fatal(err)
		}
		return &countingCursor{TrajectoryCursor: cur}
	}

	const k = 300 // fails inside the second batch
	cur, w := open(), &failingWriter{k: k}
	rows, err := Copy(cur, w)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("Copy error = %v, want the writer's", err)
	}
	if rows != k {
		t.Errorf("Copy reported %d rows, writer accepted %d", rows, k)
	}
	if cur.batches != 2 {
		t.Errorf("Copy pulled %d batches, want it to stop in the 2nd (the one holding row %d)", cur.batches, k)
	}
	if cur.Next() {
		t.Error("input cursor left open after a failed copy")
	}
	if !w.closed {
		t.Error("writer left open after a failed copy")
	}

	cur, w = open(), &failingWriter{k: -1}
	if rows, err := Copy(cur, w); err != nil || rows != len(samples) || w.written != len(samples) {
		t.Fatalf("healthy copy: %d rows (writer saw %d), err %v; want %d", rows, w.written, err, len(samples))
	}
}
