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

// TestTornJournalRecord cuts the last of three records at every byte: a
// reader gets exactly the generation before it and writes nothing, and the
// next writer folds the valid prefix before appending.
func TestTornJournalRecord(t *testing.T) {
	dir := t.TempDir()
	full := journaledLog(t, dir)
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
		got := loadManifest(t, cutDir)
		if !prefixOf(got, full, 2) {
			t.Fatalf("journal cut at byte %d of %d: generation %d, %d segments; want generation %d, 2 segments",
				cut, len(journal), got.Generation, len(got.Segments), full.Generation-1)
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
	writeJournal(t, dir, journal)
	if got := loadManifest(t, dir); !reflect.DeepEqual(got, full) {
		t.Fatalf("whole journal loads %+v, want %+v", got, full)
	}

	// A writer opening the torn log folds the two whole records; its own
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
	if got.Generation != full.Generation || len(got.Segments) != 3 ||
		!slices.Equal(got.Segments[:2], full.Segments[:2]) || got.Segments[2].Rows != 10 {
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

// TestStaleJournalRecordsSkipped replays a crash between a compaction's
// checkpoint rename and the journal's removal: the records left behind are
// at or below the checkpoint's generation and change nothing, and the next
// writer's records after them still apply.
func TestStaleJournalRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	journaledLog(t, dir)
	journal := readJournal(t, dir)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := NewCompactor(l, CompactorOptions{MinSegments: 2}).RunOnce(); err != nil || m == nil {
		t.Fatalf("compaction: %v, %v", m, err)
	}
	compacted := l.Snapshot()
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

// TestJournalGapStopsReplay: a record that skips a generation, or repeats a
// segment ID, ends the replay there.
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

// FuzzLoadManifest feeds LoadManifest's parser a checkpoint and a journal.
// It must never panic, and whatever it accepts must be a manifest: unique
// segment IDs, each below NextID, at a generation no lower than the
// checkpoint's.
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
	f.Fuzz(func(t *testing.T, checkpoint, journal []byte) {
		man, err := parseManifest(checkpoint, journal)
		if err != nil {
			return
		}
		var cp Manifest
		if err := json.Unmarshal(checkpoint, &cp); err != nil {
			t.Fatalf("accepted a checkpoint that does not parse: %v", err)
		}
		if man.Generation < cp.Generation {
			t.Fatalf("generation %d below the checkpoint's %d", man.Generation, cp.Generation)
		}
		ids := map[uint64]bool{}
		for _, m := range man.Segments {
			if ids[m.ID] || m.ID >= man.NextID {
				t.Fatalf("segment ID %d repeated or not below next ID %d", m.ID, man.NextID)
			}
			ids[m.ID] = true
		}
	})
}
