// Package seglog turns a dataset from one immutable VTB file into a live,
// append-able log of immutable VTB segment files governed by a manifest —
// the LSM-shaped evolution that lets vitaserve answer queries over data that
// never stops arriving. A Writer rolls small time-ordered segments at a
// size/row threshold; a Compactor merges accumulated segments back into one
// large segment re-blocked into global order so zone maps stay tight.
//
// The manifest is two files, the way LevelDB keeps its MANIFEST: a
// checkpoint, MANIFEST.json, holding a whole manifest, and a journal,
// MANIFEST.log, of one JSON line per segment sealed since that checkpoint
// (the generation it makes, the next ID, the segment's meta). A seal commits
// in this durable order: fsync the segment's .tmp file, rename it to its
// final name, fsync the directory, append the record to the journal, fsync
// the journal (the journal's first append in a process also fsyncs the
// directory, for the journal's own entry). Appending costs no block free;
// replacing MANIFEST.json by rename frees the old, fsynced file's blocks,
// which on a disk that discards freed blocks costs tens of milliseconds. So
// the checkpoint is rewritten (temp file, fsync, rename, directory fsync,
// then the journal is removed) only at Create, at a compaction's commit, and
// when a mutator (NewTrajectoryWriter, NewRSSIWriter, NewCompactor) opens a
// log whose journal is not empty, folding the journal in.
//
// LoadManifest reads the checkpoint, then the journal's records in file
// order: a record at or below the current generation is stale (written
// before the checkpoint that now holds it) and skipped, the record at the
// next generation is applied, and anything else — a torn last line, bad
// JSON, a generation gap — ends the replay. A crash at any instant therefore
// leaves the log at its last consistent snapshot and costs at most the
// segment being filled: readers see only segments the manifest names, and
// recovery is ignoring (or sweeping) orphan files. A reader never writes;
// the next mutator's fold turns the journal's valid prefix into a checkpoint,
// so a torn tail is never followed by new records.
//
// Concurrency contract: any number of reader processes may Open a log and
// Reload its manifest, but at most one *mutating* process — a Writer or a
// Compactor — may run per log at a time. Within one process Writer and
// Compactor may coexist (the Log serializes manifest updates and
// replaceSegments tolerates appends that land mid-merge). Superseded segment
// files are deleted only once in-process readers drain (RetainFiles /
// ReleaseFiles); on unix, unlinking a file another process still has mapped
// is safe — the pages live until that process closes.
package seglog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vita/internal/colstore"
)

// ManifestName is the file that makes a directory a segment log: the
// manifest's checkpoint.
const ManifestName = "MANIFEST.json"

// journalName is the manifest's journal: the segments sealed since the
// checkpoint, one JSON line each.
const journalName = "MANIFEST.log"

// manifestVersion guards against reading manifests written by a future,
// incompatible layout. Version 2 checkpoints may have a journal beside them;
// a version 1 reader would not replay it, so it refuses them instead of
// missing segments. Both versions load.
const manifestVersion = 2

// SegmentMeta describes one immutable segment file, mirroring the zone-map
// idea one level up: T0/T1 let a scan skip whole segments before opening
// them.
type SegmentMeta struct {
	// ID is unique for the life of the log and never reused, which is what
	// lets caches key decoded blocks by (segment ID, block) and invalidate
	// precisely.
	ID    uint64  `json:"id"`
	File  string  `json:"file"` // relative to the log directory
	Rows  int     `json:"rows"`
	Bytes int64   `json:"bytes"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	// Level counts compaction rounds: freshly rolled segments are level 0,
	// a merge output is one above its highest input.
	Level int `json:"level"`
}

// Manifest is the log's atomic root: the ordered list of live segments plus
// the counters readers need to detect and classify change.
type Manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "trajectory" or "rssi"
	// Generation increments on every manifest store; a reader that sees an
	// unchanged generation knows the segment set is byte-identical.
	Generation uint64 `json:"generation"`
	// NextID is the lowest segment ID never yet committed.
	NextID uint64 `json:"next_id"`
	// Compactions counts completed merges over the log's lifetime.
	Compactions uint64        `json:"compactions"`
	Segments    []SegmentMeta `json:"segments"`
}

// journalRecord is one line of the journal: the commit of one sealed
// segment, which makes generation Generation.
type journalRecord struct {
	Generation uint64      `json:"generation"`
	NextID     uint64      `json:"next_id"`
	Segment    SegmentMeta `json:"segment"`
}

// Log is a handle on a segment-log directory. The in-memory manifest mirrors
// the on-disk one; mutators update both atomically (disk first), readers
// Reload to pick up other processes' mutations.
type Log struct {
	dir  string
	kind colstore.Kind

	mu   sync.Mutex
	man  Manifest
	refs map[string]int  // in-process readers per segment file
	tomb map[string]bool // superseded files awaiting the last release
	// journalSynced is set once this handle has fsynced the directory since
	// the journal was created, so its entry is durable.
	journalSynced bool
	// journalBroken is set when an append failed part way: the journal may
	// end in a torn record, so the next commit writes a checkpoint instead.
	journalBroken bool
}

// IsLog reports whether dir contains a segment-log manifest.
func IsLog(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil && st.Mode().IsRegular()
}

// LogDir returns where a dataset directory keeps the segment log of one row
// kind: <dataset>/seglog/trajectory or <dataset>/seglog/rssi.
func LogDir(dataset string, kind colstore.Kind) string {
	return filepath.Join(dataset, "seglog", kind.String())
}

// Open opens an existing segment log.
func Open(dir string) (*Log, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	kind, err := parseKind(man.Kind)
	if err != nil {
		return nil, err
	}
	return &Log{dir: dir, kind: kind, man: man, refs: map[string]int{}, tomb: map[string]bool{}}, nil
}

// Create initializes a new empty segment log for records of the given kind,
// creating dir as needed. It fails if dir already holds a manifest.
func Create(dir string, kind colstore.Kind) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if IsLog(dir) {
		return nil, fmt.Errorf("seglog: %s already holds a manifest", dir)
	}
	// A journal without a checkpoint belongs to no log; its records must not
	// replay onto this one.
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		kind: kind,
		man: Manifest{
			Version:    manifestVersion,
			Kind:       kind.String(),
			Generation: 1,
		},
		refs: map[string]int{},
		tomb: map[string]bool{},
	}
	if err := l.storeCheckpointLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// OpenOrCreate opens the log at dir, creating an empty one if none exists.
func OpenOrCreate(dir string, kind colstore.Kind) (*Log, error) {
	if IsLog(dir) {
		l, err := Open(dir)
		if err != nil {
			return nil, err
		}
		if l.kind != kind {
			return nil, fmt.Errorf("seglog: %s holds %s records, want %s", dir, l.kind, kind)
		}
		return l, nil
	}
	return Create(dir, kind)
}

// LoadManifest reads and validates the manifest in dir without constructing
// a Log: the checkpoint, then the journal's valid prefix replayed over it.
// It never writes.
func LoadManifest(dir string) (Manifest, error) {
	checkpoint, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, err
	}
	return parseManifest(checkpoint, journal)
}

// parseManifest validates a checkpoint and replays a journal over it. The
// checkpoint must be whole and consistent; the journal is applied record by
// record until the first one that is torn, unparsable, out of sequence or
// inconsistent, which is where a crash (or the start of records a fold has
// not yet removed) may have left it.
func parseManifest(checkpoint, journal []byte) (Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(checkpoint, &man); err != nil {
		return Manifest{}, fmt.Errorf("seglog: parse %s: %w", ManifestName, err)
	}
	if man.Version != 1 && man.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("seglog: unsupported manifest version %d", man.Version)
	}
	if _, err := parseKind(man.Kind); err != nil {
		return Manifest{}, err
	}
	ids := make(map[uint64]bool, len(man.Segments))
	for _, m := range man.Segments {
		if ids[m.ID] || m.ID >= man.NextID {
			return Manifest{}, fmt.Errorf("seglog: %s: segment ID %d repeated or not below next ID %d", ManifestName, m.ID, man.NextID)
		}
		ids[m.ID] = true
	}
	for {
		line, rest, whole := bytes.Cut(journal, []byte{'\n'})
		if !whole {
			break // empty, or a torn last record
		}
		journal = rest
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		if rec.Generation <= man.Generation {
			continue // already in the checkpoint
		}
		seg := rec.Segment
		if rec.Generation != man.Generation+1 || ids[seg.ID] || seg.ID >= rec.NextID {
			break
		}
		ids[seg.ID] = true
		man.Segments = append(man.Segments, seg)
		man.Generation = rec.Generation
		man.NextID = max(man.NextID, rec.NextID)
	}
	return man, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Kind returns the record kind the log holds.
func (l *Log) Kind() colstore.Kind { return l.kind }

// Snapshot returns a copy of the current in-memory manifest.
func (l *Log) Snapshot() Manifest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man.copy()
}

// Reload re-reads the manifest from disk — how a reader process observes a
// writer or compactor running elsewhere. The single-mutator rule makes this
// safe for a pure reader: disk is always at least as new as memory. A read
// racing a checkpoint rewrite may see the old checkpoint without the journal
// that completed it, an older generation; that is ignored, so the manifest a
// Log hands out never goes back.
func (l *Log) Reload() (Manifest, error) {
	man, err := LoadManifest(l.dir)
	if err != nil {
		return Manifest{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if man.Generation >= l.man.Generation {
		// IDs reserved in memory but not yet committed are absent from disk;
		// keep them burned so an in-process mutator never re-issues one.
		man.NextID = max(man.NextID, l.man.NextID)
		l.man = man
	}
	return l.man.copy(), nil
}

// SegmentPath returns the absolute path of a segment.
func (l *Log) SegmentPath(m SegmentMeta) string { return filepath.Join(l.dir, m.File) }

// RetainFiles registers in-process readers of the named segment files, so a
// compaction that supersedes them defers deletion until ReleaseFiles.
func (l *Log) RetainFiles(files ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range files {
		l.refs[f]++
	}
}

// ReleaseFiles drops reader registrations; a tombstoned file whose last
// reader just left is deleted here — the "only after readers drain" half of
// compaction.
func (l *Log) ReleaseFiles(files ...string) {
	var unlink []string
	l.mu.Lock()
	defer func() {
		l.mu.Unlock()
		l.unlink(unlink)
	}()
	for _, f := range files {
		if l.refs[f]--; l.refs[f] <= 0 {
			delete(l.refs, f)
			if l.tomb[f] {
				delete(l.tomb, f)
				unlink = append(unlink, f)
			}
		}
	}
}

// removeFile deletes a superseded segment file; tests replace it to hold an
// unlink open.
var removeFile = os.Remove

// unlink deletes superseded segment files. Callers decide under mu which
// files go but call it after unlocking: freeing an fsynced file's blocks can
// take tens of milliseconds on a disk that discards them, and no one needs
// the lock meanwhile, since segment names are never reused.
func (l *Log) unlink(files []string) {
	for _, f := range files {
		removeFile(filepath.Join(l.dir, f))
	}
}

// SweepOrphans removes segment files a crash left behind: *.tmp remnants and
// seg-*.vtb files the manifest does not name and no in-process reader holds
// (a compaction's tombstones wait for ReleaseFiles). Only the log's single
// mutating process may call it (a reader cannot tell an orphan from a
// segment another process committed a moment ago). Returns how many files
// were removed.
func (l *Log) SweepOrphans() (int, error) {
	l.mu.Lock()
	live := make(map[string]bool, len(l.man.Segments)+len(l.refs))
	for _, m := range l.man.Segments {
		live[m.File] = true
	}
	for f := range l.refs {
		live[f] = true
	}
	l.mu.Unlock()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		orphan := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".vtb"))
		if !orphan {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		metricOrphansSwept.Add(int64(removed))
		slog.Info("orphan sweep", "dir", l.dir, "removed", removed)
	}
	return removed, nil
}

// reserveID hands out the next segment ID and burns it in memory, so a
// Writer and a Compactor coexisting in one process can never build under the
// same file name. The advanced NextID persists with the next manifest commit;
// if the process crashes first, restart reuses the unburned ID — safe,
// because the only trace an uncommitted ID leaves is an orphan tmp file,
// which gets swept.
func (l *Log) reserveID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.man.NextID
	l.man.NextID++
	return id
}

// appendSegment commits one freshly sealed segment, whose file the caller
// has fsynced, renamed into place and made durable with a directory fsync:
// one journal record to disk first, then memory.
func (l *Log) appendSegment(meta SegmentMeta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.man.copy()
	next.Segments = append(next.Segments, meta)
	next.Generation++
	if meta.ID >= next.NextID {
		next.NextID = meta.ID + 1
	}
	if l.journalBroken {
		return l.commitLocked(next)
	}
	if err := l.appendJournalLocked(journalRecord{Generation: next.Generation, NextID: next.NextID, Segment: meta}); err != nil {
		// The record may have reached the file, and a reader may have seen
		// it: burn its generation so the next commit makes a new one.
		l.man.Generation = next.Generation
		l.journalBroken = true
		return err
	}
	l.man = next
	return nil
}

// appendJournalLocked appends rec to the journal and fsyncs it; the first
// append of this handle also fsyncs the directory, which makes the journal's
// entry durable. Callers hold mu.
func (l *Log) appendJournalLocked(rec journalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(l.dir, journalName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(line, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && !l.journalSynced {
		if err = syncDir(l.dir); err == nil {
			l.journalSynced = true
		}
	}
	return err
}

// foldJournal is a mutator's open: it reloads the manifest from disk and, if
// the journal holds records (or the checkpoint predates journals), writes the
// result as a new checkpoint and removes the journal. A torn tail is thereby
// dropped before this mutator appends anything after it.
func (l *Log) foldJournal() error {
	if _, err := l.Reload(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := os.Stat(filepath.Join(l.dir, journalName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if (err == nil && st.Size() > 0) || l.man.Version != manifestVersion {
		return l.commitLocked(l.man.copy())
	}
	return nil
}

// replaceSegments commits a compaction: the removed segments leave the
// manifest, added takes the first removed segment's position (segments a
// writer appended mid-merge keep their place after it). Removed files are
// deleted once the commit has released the lock, unless in-process readers
// still hold them, in which case they are tombstoned for the last
// ReleaseFiles.
func (l *Log) replaceSegments(removed []SegmentMeta, added SegmentMeta) error {
	var unlink []string
	l.mu.Lock()
	defer func() {
		l.mu.Unlock()
		l.unlink(unlink)
	}()
	gone := make(map[uint64]bool, len(removed))
	for _, m := range removed {
		gone[m.ID] = true
	}
	next := l.man.copy()
	segs := make([]SegmentMeta, 0, len(next.Segments)-len(removed)+1)
	matched, placed := 0, false
	for _, m := range next.Segments {
		if gone[m.ID] {
			matched++
			if !placed {
				segs = append(segs, added)
				placed = true
			}
			continue
		}
		segs = append(segs, m)
	}
	if matched != len(removed) {
		// A removed segment is already gone: some other mutator violated the
		// single-mutator rule (or the caller merged from a stale snapshot).
		return fmt.Errorf("seglog: replace: %d of %d input segments no longer in manifest", len(removed)-matched, len(removed))
	}
	if !placed {
		segs = append(segs, added)
	}
	next.Segments = segs
	next.Generation++
	next.Compactions++
	if added.ID >= next.NextID {
		next.NextID = added.ID + 1
	}
	if err := l.commitLocked(next); err != nil {
		return err
	}
	for _, m := range removed {
		if l.refs[m.File] > 0 {
			l.tomb[m.File] = true
			continue
		}
		unlink = append(unlink, m.File)
	}
	return nil
}

// commitLocked stores next to disk as a checkpoint and, on success, adopts
// it in memory. Callers hold mu.
func (l *Log) commitLocked(next Manifest) error {
	saved := l.man
	l.man = next
	if err := l.storeCheckpointLocked(); err != nil {
		l.man = saved
		return err
	}
	return nil
}

// storeCheckpointLocked writes the manifest as a checkpoint atomically: temp
// file in the same directory, fsync, rename over the live name, fsync the
// directory. A crash anywhere in the sequence leaves either the old
// checkpoint or the new one — never a torn mix. Then the journal, every
// record of which the new checkpoint holds, is removed; a crash before that
// leaves records replay skips as stale. Callers hold mu.
func (l *Log) storeCheckpointLocked() error {
	l.man.Version = manifestVersion
	data, err := json.MarshalIndent(l.man, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(l.dir, ManifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(l.dir, journalName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// The checkpoint is committed and every record left is stale. A
		// broken journal stays broken, so no record lands after its torn
		// tail: commits keep writing checkpoints until a removal succeeds.
		slog.Warn("manifest journal not removed", "dir", l.dir, "error", err.Error())
		return nil
	}
	l.journalSynced, l.journalBroken = false, false
	return nil
}

// copy returns a manifest with its own segment slice.
func (m Manifest) copy() Manifest {
	out := m
	out.Segments = make([]SegmentMeta, len(m.Segments))
	copy(out.Segments, m.Segments)
	return out
}

// Rows returns the total live row count.
func (m Manifest) Rows() int {
	n := 0
	for _, s := range m.Segments {
		n += s.Rows
	}
	return n
}

// segName renders the canonical segment file name for an ID.
func segName(id uint64) string { return fmt.Sprintf("seg-%08d.vtb", id) }

func parseKind(s string) (colstore.Kind, error) {
	switch s {
	case colstore.KindTrajectory.String():
		return colstore.KindTrajectory, nil
	case colstore.KindRSSI.String():
		return colstore.KindRSSI, nil
	default:
		return 0, fmt.Errorf("seglog: unknown record kind %q", s)
	}
}

// syncDir fsyncs a directory so a rename within it is durable. Sync errors
// are tolerated (some filesystems refuse to sync directories): the rename
// itself is still atomic, only its durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	_ = d.Sync()
	return d.Close()
}
