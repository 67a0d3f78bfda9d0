package seglog

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"vita/internal/colstore"
	"vita/internal/rssi"
	"vita/internal/storage"
)

func TestCompactMergesToGlobalOrder(t *testing.T) {
	samples := logSamples(500)
	l := writeLog(t, t.TempDir(), samples, 64)
	before := l.Snapshot()

	meta, err := NewCompactor(l, CompactorOptions{MinSegments: 2, Block: colstore.Options{BlockSize: 128}}).RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil {
		t.Fatal("compaction skipped above threshold")
	}
	man := l.Snapshot()
	if len(man.Segments) != 1 {
		t.Fatalf("post-compaction segments = %d, want 1", len(man.Segments))
	}
	if man.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", man.Compactions)
	}
	if man.Generation <= before.Generation {
		t.Fatalf("generation did not advance: %d -> %d", before.Generation, man.Generation)
	}
	if got := man.Segments[0]; got.Level != 1 || got.Rows != len(samples) {
		t.Fatalf("merged meta = %+v, want level 1 / %d rows", got, len(samples))
	}
	got := readLog(t, l)
	if len(got) != len(samples) {
		t.Fatalf("merged rows = %d, want %d", len(got), len(samples))
	}
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d out of order after merge", i)
		}
	}
	// Zone maps re-blocked into global time order never overlap in time.
	r, err := colstore.OpenTrajectory(l.SegmentPath(man.Segments[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	zones := r.Blocks()
	for i := 1; i < len(zones); i++ {
		if zones[i].T0 < zones[i-1].T1 {
			t.Fatalf("blocks %d/%d overlap in time: [%g,%g] then [%g,%g]",
				i-1, i, zones[i-1].T0, zones[i-1].T1, zones[i].T0, zones[i].T1)
		}
	}
	// Superseded files are gone (no readers held them).
	for _, m := range before.Segments {
		if _, err := os.Stat(l.SegmentPath(m)); !os.IsNotExist(err) {
			t.Errorf("superseded %s still on disk", m.File)
		}
	}
}

func TestCompactBelowThresholdIsNoop(t *testing.T) {
	l := writeLog(t, t.TempDir(), logSamples(100), 64)
	before := l.Snapshot()
	meta, err := NewCompactor(l, CompactorOptions{MinSegments: 4}).RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Fatal("compaction ran below threshold")
	}
	if got := l.Snapshot(); got.Generation != before.Generation {
		t.Fatal("no-op compaction advanced the generation")
	}
}

func TestCompactTombstonesUntilReadersDrain(t *testing.T) {
	l := writeLog(t, t.TempDir(), logSamples(300), 64)
	before := l.Snapshot()
	held := before.Segments[0]

	// A reader holds the first segment open (and registered) mid-compaction.
	r, err := colstore.OpenTrajectory(l.SegmentPath(held))
	if err != nil {
		t.Fatal(err)
	}
	l.RetainFiles(held.File)

	if _, err := NewCompactor(l, CompactorOptions{MinSegments: 2}).RunOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(l.SegmentPath(held)); err != nil {
		t.Fatal("held segment deleted before its reader drained")
	}
	// The reader still decodes its file byte-identically post-compaction.
	rows := 0
	cur := r.Cursor(colstore.Predicate{})
	for cur.Next() {
		rows += cur.Batch().Len()
	}
	if err := cur.Close(); err != nil || rows != held.Rows {
		t.Fatalf("held reader broken after compaction: %d rows, %v", rows, err)
	}
	r.Close()
	l.ReleaseFiles(held.File)
	if _, err := os.Stat(l.SegmentPath(held)); !os.IsNotExist(err) {
		t.Fatal("tombstoned segment survived the last release")
	}
}

// TestUnlinkOutsideLock: a compaction deletes the segments it superseded
// after releasing the log's lock, so while one of those unlinks is stuck (on
// a disk that discards freed blocks, each can take tens of milliseconds)
// Snapshot, RetainFiles/ReleaseFiles and a writer's seal all go ahead. A
// segment retained at compaction time survives until its last release.
func TestUnlinkOutsideLock(t *testing.T) {
	samples := logSamples(400)
	l := writeLog(t, t.TempDir(), samples[:300], 64)
	held := l.Snapshot().Segments[0]
	l.RetainFiles(held.File)
	l.RetainFiles(held.File)

	unlinking := make(chan string, 16)
	release := make(chan struct{})
	removeFile = func(name string) error {
		unlinking <- filepath.Base(name)
		<-release
		return os.Remove(name)
	}
	defer func() { removeFile = os.Remove }()
	released := false
	unblock := func() {
		if !released {
			close(release)
			released = true
		}
	}
	defer unblock()

	compacted := make(chan error, 1)
	go func() {
		_, err := NewCompactor(l, CompactorOptions{MinSegments: 2}).RunOnce()
		compacted <- err
	}()
	select {
	case f := <-unlinking:
		if f == held.File {
			t.Fatalf("compaction unlinked %s, which a reader holds", f)
		}
	case err := <-compacted:
		t.Fatalf("compaction finished (%v) without unlinking a segment", err)
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached an unlink")
	}

	// Each step must return while the unlink is held open.
	returns := func(what string, step func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			step()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			unblock()
			<-done
			t.Fatalf("%s waited for a compaction's unlink", what)
		}
	}
	var merged SegmentMeta
	returns("Snapshot", func() { merged = l.Snapshot().Segments[0] })
	returns("RetainFiles/ReleaseFiles", func() {
		l.RetainFiles(merged.File)
		l.ReleaseFiles(merged.File)
	})
	var sealErr error
	returns("a writer's seal", func() {
		w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 1 << 30, Block: colstore.Options{BlockSize: 32}})
		if err != nil {
			sealErr = err
			return
		}
		for _, s := range samples[300:] {
			if err := w.Write(s); err != nil {
				sealErr = err
				return
			}
		}
		sealErr = w.Close()
	})
	if sealErr != nil {
		t.Fatal(sealErr)
	}

	unblock()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if got := readLog(t, l); len(got) != len(samples) {
		t.Fatalf("log holds %d rows after compaction and seal, want %d", len(got), len(samples))
	}
	l.ReleaseFiles(held.File)
	if _, err := os.Stat(l.SegmentPath(held)); err != nil {
		t.Fatalf("retained segment deleted before its last release: %v", err)
	}
	l.ReleaseFiles(held.File)
	if _, err := os.Stat(l.SegmentPath(held)); !os.IsNotExist(err) {
		t.Fatal("retained segment survived its last release")
	}
}

func TestCompactCrashMidMergeLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(300)
	l := writeLog(t, dir, samples, 64)
	before := l.Snapshot()

	// Simulate the compactor dying mid-merge: the half-built output exists
	// under its tmp name, the manifest untouched.
	id := l.reserveID()
	if err := os.WriteFile(filepath.Join(dir, segName(id)+".tmp"), []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh open sees the exact pre-crash snapshot, byte for byte.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := l2.Snapshot()
	if man.Generation != before.Generation || len(man.Segments) != len(before.Segments) {
		t.Fatalf("crash changed the manifest: %+v", man)
	}
	got := readLog(t, l2)
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d differs after crash", i)
		}
	}

	// Retrying the compaction (which sweeps first via the writer path, or
	// just overwrites the tmp) succeeds.
	if _, err := l2.SweepOrphans(); err != nil {
		t.Fatal(err)
	}
	meta, err := NewCompactor(l2, CompactorOptions{MinSegments: 2}).RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("retry after crash failed: %+v, %v", meta, err)
	}
	if got := readLog(t, l2); len(got) != len(samples) {
		t.Fatalf("post-retry rows = %d, want %d", len(got), len(samples))
	}
}

func TestCompactAppendDuringMergeKeepsNewSegments(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(400)
	l := writeLog(t, dir, samples[:256], 64)

	c := NewCompactor(l, CompactorOptions{MinSegments: 2})
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 1 << 30, Block: colstore.Options{BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[256:] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := c.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil {
		t.Fatal("compaction skipped")
	}
	// RunOnce snapshots at call time, so it merged everything here; the
	// mid-merge append case is the replaceSegments contract: segments not in
	// the removed set stay, in order. Exercise it directly.
	man := l.Snapshot()
	if len(man.Segments) != 1 || man.Segments[0].Rows != len(samples) {
		t.Fatalf("merged manifest = %+v", man.Segments)
	}
	got := readLog(t, l)
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestReplaceSegmentsKeepsMidMergeAppends(t *testing.T) {
	l := writeLog(t, t.TempDir(), logSamples(300), 64) // 5 segments
	man := l.Snapshot()
	inputs := man.Segments[:3]

	// A writer appended segments 3,4 after the merge snapshotted 0..2.
	id := l.reserveID()
	added := SegmentMeta{ID: id, File: segName(id), Rows: 192, Level: 1}
	if err := os.WriteFile(l.SegmentPath(added), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.replaceSegments(inputs, added); err != nil {
		t.Fatal(err)
	}
	got := l.Snapshot().Segments
	if len(got) != 3 {
		t.Fatalf("segments = %d, want merged + 2 appends", len(got))
	}
	if got[0].ID != added.ID || got[1].ID != man.Segments[3].ID || got[2].ID != man.Segments[4].ID {
		t.Fatalf("order after replace: %v", got)
	}

	// Replacing segments that already left the manifest must fail loudly.
	if err := l.replaceSegments(inputs, added); err == nil {
		t.Fatal("stale replace succeeded")
	}
}

func TestCompactRSSIPreservesGroupOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, colstore.KindRSSI)
	if err != nil {
		t.Fatal(err)
	}
	ms := logMeasurements(400)
	w, err := NewRSSIWriter(l, WriterOptions{MaxSegmentRows: 96, Block: colstore.Options{BlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(l.Snapshot().Segments); n < 2 {
		t.Fatalf("need multiple segments, got %d", n)
	}
	meta, err := NewCompactor(l, CompactorOptions{MinSegments: 2}).RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("rssi compaction: %+v, %v", meta, err)
	}
	got := readFile[rssi.Measurement](t, storage.RSSI, l.SegmentPath(l.Snapshot().Segments[0]))
	if len(got) != len(ms) {
		t.Fatalf("merged %d measurements, want %d", len(got), len(ms))
	}
	for i := range got {
		if !measurementEqual(got[i], ms[i]) {
			t.Fatalf("measurement %d differs: %+v vs %+v", i, got[i], ms[i])
		}
	}
}

// The package doc endorses a Writer and a Compactor coexisting in one
// process; reserveID must burn IDs so the compactor can never build its
// output under the name of the writer's in-progress segment.
func TestWriterAndCompactorReserveDistinctIDs(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(120)
	l, err := OpenOrCreate(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 25, Block: colstore.Options{BlockSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// Seal four segments, then leave a fifth in progress (its tmp file open).
	for _, s := range samples[:110] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if w.f == nil {
		t.Fatal("expected an in-progress segment")
	}
	inProgress := w.id

	// Compact the sealed segments mid-write, in the same process.
	meta, err := NewCompactor(l, CompactorOptions{MinSegments: 2, Block: colstore.Options{BlockSize: 8}}).RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("mid-write compaction: %+v, %v", meta, err)
	}
	if meta.ID == inProgress {
		t.Fatalf("compactor reused the writer's in-progress ID %d", inProgress)
	}

	// The writer's open segment survives the merge untouched.
	for _, s := range samples[110:] {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, m := range l.Snapshot().Segments {
		if seen[m.ID] {
			t.Fatalf("duplicate segment ID %d in manifest", m.ID)
		}
		seen[m.ID] = true
	}
	got := readLog(t, l)
	if len(got) != len(samples) {
		t.Fatalf("rows after concurrent merge = %d, want %d", len(got), len(samples))
	}
	for i := range got {
		if !sampleEqual(got[i], samples[i]) {
			t.Fatalf("row %d corrupted by concurrent merge", i)
		}
	}
}

func TestCompactorMinSegmentsFloor(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 4}, {-3, 4}, {1, 2}, {2, 2}, {7, 7},
	} {
		if got := (CompactorOptions{MinSegments: tc.in}).withDefaults().MinSegments; got != tc.want {
			t.Errorf("withDefaults(MinSegments=%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func measurementEqual(a, b rssi.Measurement) bool {
	return a.ObjID == b.ObjID && a.DeviceID == b.DeviceID && a.RSSI == b.RSSI && a.T == b.T
}
