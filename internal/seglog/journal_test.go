package seglog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vita/internal/colstore"
)

// journaledLog writes a fresh trajectory log in dir holding three sealed
// segments, committed as three journal records (generations 2, 3 and 4 over
// the checkpoint Create wrote), and returns its manifest.
func journaledLog(t testing.TB, dir string) Manifest {
	t.Helper()
	l, err := Create(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 40, Block: colstore.Options{BlockSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range logSamples(120) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man := l.Snapshot()
	if man.Generation != 4 || len(man.Segments) != 3 {
		t.Fatalf("fixture log at generation %d with %d segments, want 4 and 3", man.Generation, len(man.Segments))
	}
	if n := bytes.Count(readJournal(t, dir), []byte{'\n'}); n != 3 {
		t.Fatalf("journal holds %d records, want 3", n)
	}
	return man
}

// journaledCompaction extends journaledLog's three seal records with a
// fourth, the compaction of all three segments, committed by a compactor
// that, like one built before the seals, does not fold the journal first. It
// returns the manifests before and after the compaction.
func journaledCompaction(t testing.TB, dir string) (sealed, compacted Manifest) {
	t.Helper()
	sealed = journaledLog(t, dir)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := &Compactor{log: l, opts: CompactorOptions{MinSegments: 2}.withDefaults()}
	if m, err := c.RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %v, %v", m, err)
	}
	compacted = l.Snapshot()
	if n := bytes.Count(readJournal(t, dir), []byte{'\n'}); n != 4 {
		t.Fatalf("journal holds %d records, want 4", n)
	}
	return sealed, compacted
}

// holdUnlinks makes a compaction leave its inputs on disk, as a crash right
// after its record would, until the test ends.
func holdUnlinks(t testing.TB) {
	removeFile = func(string) error { return nil }
	t.Cleanup(func() { removeFile = os.Remove })
}

func readJournal(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeJournal(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func loadManifest(t testing.TB, dir string) Manifest {
	t.Helper()
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// prefixOf reports whether got is the manifest after the first n segments of
// full were committed, with the generation that commit made.
func prefixOf(got, full Manifest, n int) bool {
	return got.Generation == full.Generation-uint64(len(full.Segments)-n) &&
		slices.Equal(got.Segments, full.Segments[:n])
}

// TestSealAppendsToJournal: a seal leaves the checkpoint alone and adds one
// journal record; the checkpoint carries the journaled layout's version.
func TestSealAppendsToJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range logSamples(30) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			// Visible to another reader as soon as the sealing Write returns.
			if got := loadManifest(t, dir); len(got.Segments) != (i+1)/10 {
				t.Fatalf("after %d rows a reader sees %d segments", i+1, len(got.Segments))
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, checkpoint) {
		t.Error("a seal rewrote the checkpoint")
	}
	var cp Manifest
	if err := json.Unmarshal(checkpoint, &cp); err != nil || cp.Version != manifestVersion {
		t.Errorf("checkpoint version %d (%v), want %d", cp.Version, err, manifestVersion)
	}
	if n := bytes.Count(readJournal(t, dir), []byte{'\n'}); n != 3 {
		t.Errorf("journal holds %d records, want 3", n)
	}
	if got, want := loadManifest(t, dir), l.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("disk manifest %+v, in memory %+v", got, want)
	}
}

// TestTornJournalRecord cuts the last record, a compaction's, at every
// byte: a reader gets exactly the generation before it and writes nothing,
// and the next writer folds the whole records before appending.
func TestTornJournalRecord(t *testing.T) {
	dir := t.TempDir()
	holdUnlinks(t)
	sealed, compacted := journaledCompaction(t, dir)
	journal := readJournal(t, dir)
	last := bytes.LastIndexByte(journal[:len(journal)-1], '\n') + 1
	checkpoint, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := last; cut < len(journal); cut++ {
		// A directory per cut: truncating one file over and over would time
		// the filesystem's block frees, not the replay.
		cutDir := filepath.Join(t.TempDir(), "log")
		if err := os.Mkdir(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, ManifestName), checkpoint, 0o644); err != nil {
			t.Fatal(err)
		}
		writeJournal(t, cutDir, journal[:cut])
		if got := loadManifest(t, cutDir); !reflect.DeepEqual(got, sealed) {
			t.Fatalf("journal cut at byte %d of %d: generation %d, %d segments; want generation %d, %d segments",
				cut, len(journal), got.Generation, len(got.Segments), sealed.Generation, len(sealed.Segments))
		}
		l, err := Open(cutDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Reload(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readJournal(t, cutDir), journal[:cut]) {
			t.Fatalf("a reader rewrote the journal cut at byte %d", cut)
		}
	}
	if got := loadManifest(t, dir); !reflect.DeepEqual(got, compacted) {
		t.Fatalf("whole journal loads %+v, want %+v", got, compacted)
	}

	// A writer opening the torn log folds the three whole records; its own
	// record follows them, not the torn bytes.
	writeJournal(t, dir, journal[:len(journal)-5])
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("fold left the journal in place: %v", err)
	}
	for _, s := range logSamples(10) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := loadManifest(t, dir)
	if got.Generation != sealed.Generation+1 || got.Compactions != 0 || len(got.Segments) != 4 ||
		!slices.Equal(got.Segments[:3], sealed.Segments) || got.Segments[3].Rows != 10 {
		t.Fatalf("after fold and append: generation %d, segments %+v", got.Generation, got.Segments)
	}
}

// TestMutatorOpenFoldsJournal: a second writer's open turns the journal into
// a checkpoint, and its next seal gives a log of every prior segment plus the
// new one.
func TestMutatorOpenFoldsJournal(t *testing.T) {
	dir := t.TempDir()
	full := journaledLog(t, dir)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("open of a mutator left the journal: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var cp Manifest
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, full) {
		t.Fatalf("folded checkpoint %+v, want %+v", cp, full)
	}
	for _, s := range logSamples(10) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := loadManifest(t, dir)
	if got.Generation != full.Generation+1 || len(got.Segments) != 4 ||
		!slices.Equal(got.Segments[:3], full.Segments) {
		t.Fatalf("after fold and append: generation %d, segments %+v", got.Generation, got.Segments)
	}
	if n := got.Segments[3]; n.ID < full.NextID || n.Rows != 10 {
		t.Fatalf("appended segment %+v, want a new ID at or above %d with 10 rows", n, full.NextID)
	}
}

// TestStaleJournalRecordsSkipped replays a crash inside a fold, after the
// checkpoint's rename and before the journal's removal: the records left
// behind, a compaction's among them, are at or below the checkpoint's
// generation and change nothing, and the next writer's records after them
// still apply.
func TestStaleJournalRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	_, compacted := journaledCompaction(t, dir)
	journal := readJournal(t, dir)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrajectoryWriter(l, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("fold left the journal in place: %v", err)
	}
	writeJournal(t, dir, journal)
	if got := loadManifest(t, dir); !reflect.DeepEqual(got, compacted) {
		t.Fatalf("stale records changed the manifest: %+v, want %+v", got, compacted)
	}

	// Records of the next generations, appended after the stale ones.
	var seg SegmentMeta
	for i := range 2 {
		seg = SegmentMeta{ID: compacted.NextID + uint64(i), File: segName(compacted.NextID + uint64(i)), Rows: 1}
		line, err := json.Marshal(journalRecord{Generation: compacted.Generation + 1 + uint64(i), NextID: seg.ID + 1, Segment: seg})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	writeJournal(t, dir, journal)
	got := loadManifest(t, dir)
	if got.Generation != compacted.Generation+2 || len(got.Segments) != 3 || got.Segments[2] != seg || got.NextID != seg.ID+1 {
		t.Fatalf("records after stale ones: generation %d, next ID %d, segments %+v", got.Generation, got.NextID, got.Segments)
	}
}

// TestCompactionAppendsOneRecord: a 20-segment compaction commits as a seal
// does, by one journal record. MANIFEST.json keeps its bytes and its inode,
// and a reader replays the record to the compacted manifest.
func TestCompactionAppendsOneRecord(t *testing.T) {
	dir := t.TempDir()
	l := writeLog(t, dir, logSamples(400), 20)
	c := NewCompactor(l, CompactorOptions{MinSegments: 2})
	inputs := l.Snapshot().Segments
	if len(inputs) != 20 {
		t.Fatalf("log holds %d segments, want 20", len(inputs))
	}
	path := filepath.Join(dir, ManifestName)
	checkpoint, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := c.RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("compaction: %v, %v", meta, err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, checkpoint) {
		t.Errorf("the compaction rewrote %s (%v)", ManifestName, err)
	}
	if st2, err := os.Stat(path); err != nil || !os.SameFile(st, st2) {
		t.Errorf("the compaction replaced %s's inode (%v)", ManifestName, err)
	}
	lines := bytes.SplitAfter(readJournal(t, dir), []byte{'\n'})
	if len(lines) != 2 || len(lines[1]) != 0 {
		t.Fatalf("journal holds %d lines, want one record", len(lines)-1)
	}
	var rec journalRecord
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatal(err)
	}
	removed := make([]uint64, len(inputs))
	for i, m := range inputs {
		removed[i] = m.ID
	}
	if rec.Segment != *meta || !slices.Equal(rec.Removed, removed) {
		t.Errorf("record adds %+v removing %v; want %+v removing %v", rec.Segment, rec.Removed, *meta, removed)
	}
	got, want := loadManifest(t, dir), l.Snapshot()
	if !reflect.DeepEqual(got, want) || want.Compactions != 1 || len(want.Segments) != 1 {
		t.Fatalf("replayed manifest %+v, in memory %+v", got, want)
	}
}

// TestCrashAfterCompactionRecord: a compactor that dies after its record,
// before unlinking its inputs, leaves files no manifest names. Readers never
// list them, and the next writer's orphan sweep removes them.
func TestCrashAfterCompactionRecord(t *testing.T) {
	dir := t.TempDir()
	samples := logSamples(300)
	l := writeLog(t, dir, samples, 60)
	inputs := l.Snapshot().Segments
	holdUnlinks(t)
	meta, err := NewCompactor(l, CompactorOptions{MinSegments: 2}).RunOnce()
	if err != nil || meta == nil {
		t.Fatalf("compaction: %v, %v", meta, err)
	}
	for _, m := range inputs {
		if _, err := os.Stat(l.SegmentPath(m)); err != nil {
			t.Fatalf("input %s gone before the crash: %v", m.File, err)
		}
	}
	if got := loadManifest(t, dir).Segments; len(got) != 1 || got[0] != *meta {
		t.Fatalf("a reader lists %+v, want only the merged segment %+v", got, *meta)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrajectoryWriter(l2, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, m := range inputs {
		if _, err := os.Stat(l2.SegmentPath(m)); !os.IsNotExist(err) {
			t.Errorf("input %s survived the next writer's sweep (%v)", m.File, err)
		}
	}
	if got := readLog(t, l2); !slices.EqualFunc(got, samples, sampleEqual) {
		t.Fatalf("log holds %d rows that differ from the %d written", len(got), len(samples))
	}
}

// TestJournalGapStopsReplay: a record that skips a generation, repeats a
// segment ID or removes one the manifest does not hold ends the replay
// there.
func TestJournalGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	full := journaledLog(t, dir)
	lines := bytes.SplitAfter(readJournal(t, dir), []byte{'\n'})[:3]

	writeJournal(t, dir, join(lines[0], lines[2]))
	if got := loadManifest(t, dir); !prefixOf(got, full, 1) {
		t.Fatalf("gap: generation %d, %d segments; want generation %d, 1 segment", got.Generation, len(got.Segments), full.Generation-2)
	}

	// The third record, renumbered to follow the first: same generation
	// sequence, but a segment ID the manifest already holds.
	var rec journalRecord
	if err := json.Unmarshal(lines[2], &rec); err != nil {
		t.Fatal(err)
	}
	rec.Generation--
	rec.Segment = full.Segments[0]
	dup, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, join(lines[0], lines[1], append(dup, '\n')))
	if got := loadManifest(t, dir); !prefixOf(got, full, 2) {
		t.Fatalf("repeated ID: generation %d, %d segments; want generation %d, 2 segments", got.Generation, len(got.Segments), full.Generation-1)
	}

	// A compaction at the next generation that removes a segment the
	// manifest does not hold.
	rec = journalRecord{Generation: full.Generation - 1, NextID: full.NextID + 1,
		Segment: SegmentMeta{ID: full.NextID, File: segName(full.NextID)}, Removed: []uint64{full.Segments[0].ID, full.Segments[2].ID}}
	absent, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, join(lines[0], lines[1], append(absent, '\n')))
	if got := loadManifest(t, dir); !prefixOf(got, full, 2) {
		t.Fatalf("absent removed ID: generation %d, %d segments; want generation %d, 2 segments", got.Generation, len(got.Segments), full.Generation-1)
	}

	writeJournal(t, dir, join(lines[0], []byte("{not json}\n"), lines[1], lines[2]))
	if got := loadManifest(t, dir); !prefixOf(got, full, 1) {
		t.Fatalf("bad line: generation %d, %d segments; want generation %d, 1 segment", got.Generation, len(got.Segments), full.Generation-2)
	}
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestReloadDuringRolls polls Reload from a second handle, as a reader
// process would, while a writer rolls 20 segments: every manifest it sees has
// a generation no lower than the one before and is a prefix of the final
// segment list.
func TestReloadDuringRolls(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, colstore.KindTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{MaxSegmentRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var seen []Manifest
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			man, err := reader.Reload()
			if err != nil {
				t.Error(err)
				return
			}
			seen = append(seen, man)
		}
	}()
	for _, s := range logSamples(100) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	final := l.Snapshot()
	if len(final.Segments) != 20 {
		t.Fatalf("writer rolled %d segments, want 20", len(final.Segments))
	}
	var gen uint64
	for i, man := range seen {
		if man.Generation < gen {
			t.Fatalf("reload %d went back from generation %d to %d", i, gen, man.Generation)
		}
		gen = man.Generation
		if !prefixOf(man, final, len(man.Segments)) {
			t.Fatalf("reload %d (generation %d) is not a prefix of the final log", i, man.Generation)
		}
	}
	t.Logf("%d reloads, last at generation %d", len(seen), gen)
}

// TestVersionOneLogOpens: a log written before the journal existed (the
// flate-era fixture) loads as it always did, and a writer opening it first
// rewrites its checkpoint at the journaled layout's version.
func TestVersionOneLogOpens(t *testing.T) {
	src := filepath.Join("..", "colstore", "testdata", "flate", "seglog")
	man := loadManifest(t, src)
	if man.Version != 1 || man.Generation != 4 || len(man.Segments) != 3 {
		t.Fatalf("fixture manifest: version %d, generation %d, %d segments", man.Version, man.Generation, len(man.Segments))
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var cp Manifest
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	man.Version = manifestVersion
	if !reflect.DeepEqual(cp, man) {
		t.Fatalf("rewritten checkpoint %+v, want %+v", cp, man)
	}
}

// TestVersionTwoLogOpens: a version-2 log, a checkpoint and a journal of
// seals, loads as it did, and a writer's open rewrites its checkpoint at
// version 3 before its first record. A checkpoint of a later version is
// refused.
func TestVersionTwoLogOpens(t *testing.T) {
	dir := t.TempDir()
	full := journaledLog(t, dir)
	var cp Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err == nil {
		err = json.Unmarshal(data, &cp)
	}
	if err != nil {
		t.Fatal(err)
	}
	setVersion := func(v int) {
		t.Helper()
		cp.Version = v
		data, err := json.MarshalIndent(cp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	setVersion(2)
	want := full
	want.Version = 2
	if got := loadManifest(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("version-2 log loads %+v, want %+v", got, want)
	}

	setVersion(manifestVersion + 1)
	if _, err := LoadManifest(dir); err == nil {
		t.Fatalf("a version-%d checkpoint loaded", manifestVersion+1)
	}
	if _, err := Open(dir); err == nil {
		t.Fatalf("a version-%d log opened", manifestVersion+1)
	}

	setVersion(2)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTrajectoryWriter(l, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var folded Manifest
	if err := json.Unmarshal(data, &folded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folded, full) {
		t.Fatalf("a writer's open left checkpoint %+v, want %+v", folded, full)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("a writer's open left the version-2 journal: %v", err)
	}
	for _, s := range logSamples(10) {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(readJournal(t, dir), []byte{'\n'}); n != 1 {
		t.Errorf("journal holds %d records after one seal, want 1", n)
	}
}

// FuzzLoadManifest feeds LoadManifest's parser a checkpoint and a journal.
// It must never panic, and whatever it accepts must be a manifest: unique
// segment IDs, each below NextID, at a generation and a compaction count no
// lower than the checkpoint's. No compaction record it applies leaves a
// segment it removed in the manifest.
func FuzzLoadManifest(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "colstore", "testdata", "flate", "seglog", ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture, []byte(nil))
	dir := f.TempDir()
	journaledLog(f, dir)
	checkpoint, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	journal := readJournal(f, dir)
	f.Add(checkpoint, journal)
	f.Add(checkpoint, journal[:len(journal)-7])
	dir = f.TempDir()
	journaledCompaction(f, dir)
	journal = readJournal(f, dir)
	f.Add(checkpoint, journal)
	f.Add(checkpoint, journal[:len(journal)-7])
	f.Fuzz(func(t *testing.T, checkpoint, journal []byte) {
		man, err := parseManifest(checkpoint, journal)
		if err != nil {
			return
		}
		var cp Manifest
		if err := json.Unmarshal(checkpoint, &cp); err != nil {
			t.Fatalf("accepted a checkpoint that does not parse: %v", err)
		}
		if man.Generation < cp.Generation || man.Compactions < cp.Compactions {
			t.Fatalf("generation %d, compactions %d below the checkpoint's %d, %d",
				man.Generation, man.Compactions, cp.Generation, cp.Compactions)
		}
		ids := map[uint64]bool{}
		for _, m := range man.Segments {
			if ids[m.ID] || m.ID >= man.NextID {
				t.Fatalf("segment ID %d repeated or not below next ID %d", m.ID, man.NextID)
			}
			ids[m.ID] = true
		}
		// Replay the journal a line at a time: a line that moves the
		// generation was applied.
		prev, end := cp.Generation, 0
		for {
			n := bytes.IndexByte(journal[end:], '\n')
			if n < 0 {
				break
			}
			end += n + 1
			at, err := parseManifest(checkpoint, journal[:end])
			if err != nil {
				t.Fatalf("a prefix of an accepted journal is refused: %v", err)
			}
			if at.Generation == prev {
				continue
			}
			prev = at.Generation
			var rec journalRecord
			if err := json.Unmarshal(journal[end-n-1:end], &rec); err != nil {
				t.Fatalf("applied a line that does not parse: %v", err)
			}
			for _, m := range at.Segments {
				if slices.Contains(rec.Removed, m.ID) {
					t.Fatalf("generation %d lists segment %d, which its record removed", at.Generation, m.ID)
				}
			}
		}
	})
}
