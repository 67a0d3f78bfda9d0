// Package seglog turns a dataset from one immutable VTB file into a live,
// append-able log of immutable VTB segment files governed by a manifest —
// the LSM-shaped evolution that lets vitaserve answer queries over data that
// never stops arriving. A Writer rolls small time-ordered segments at a
// size/row threshold; a Compactor merges accumulated segments back into one
// large segment re-blocked into global order so zone maps stay tight.
//
// The manifest is two files, the way LevelDB keeps its MANIFEST: a
// checkpoint, MANIFEST.json, holding a whole manifest, and a journal,
// MANIFEST.log, of one JSON line per change since it: a seal's record adds a
// segment, a compaction's adds its merge in place of the segments it
// removes, and Manifest.apply is the one rule for both. Every change commits
// the same way: fsync the new segment's .tmp file, rename it to its final
// name, fsync the directory, append the record to the journal, fsync the
// journal (the journal's first append in a process also fsyncs the
// directory). Appending costs no block free; replacing MANIFEST.json by
// rename frees the old, fsynced file's blocks, which on a disk that discards
// freed blocks costs tens of milliseconds. So the checkpoint is rewritten
// (temp file, fsync, rename, directory fsync, then the journal is removed)
// only at Create, after an append that failed part way, and when a mutator
// (NewTrajectoryWriter, NewRSSIWriter, NewCompactor) opens a log whose
// journal is not empty or whose checkpoint is older, folding the journal in.
//
// LoadManifest reads the checkpoint, then the journal's records in file
// order: a record at or below the current generation is stale (written
// before the checkpoint that now holds it) and skipped, the record at the
// next generation is applied, and anything else — a torn last line, bad
// JSON, a record apply refuses — ends the replay. A crash at any instant
// therefore leaves the log at its last consistent snapshot and costs at most
// the segment being filled: readers see only segments the manifest names,
// and recovery is ignoring (or sweeping) orphan files. A reader never
// writes; the next mutator's fold turns the journal's valid prefix into a
// checkpoint, so a torn tail is never followed by new records.
//
// Concurrency contract: any number of readers, in this process or others,
// may Open a log and Reload its manifest, but at most one *mutating* process
// — a Writer or a Compactor — may run per log at a time. Within one process
// Writer and Compactor may coexist (the Log serializes commits, and a
// compaction's record removes only the segments it merged, so segments
// appended mid-merge keep their place). A compaction unlinks its inputs as
// soon as its commit is durable, whoever still reads them: an open segment
// reader holds a mapping or a copy of the file, never its descriptor, so an
// unlink does not disturb it. A reader that has read a manifest but not yet
// opened its files may find one gone; it reloads the manifest, whose
// generation has then moved, and opens that.
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
	"slices"
	"strings"
	"sync"

	"vita/internal/colstore"
)

// ManifestName is the file that makes a directory a segment log: the
// manifest's checkpoint.
const ManifestName = "MANIFEST.json"

// journalName is the manifest's journal: the changes committed since the
// checkpoint, one JSON line each.
const journalName = "MANIFEST.log"

// manifestVersion guards against reading manifests written by a future,
// incompatible layout. Version 2 added the journal, which a version-1 reader
// would miss; version 3 added compaction records, which a version-2 reader
// would apply as seals, serving a merge beside its inputs. Versions 1–3 load,
// and a mutator's open rewrites an older checkpoint before it appends.
const manifestVersion = 3

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

// journalRecord is one line of the journal: the commit that makes generation
// Generation. A seal adds Segment; a compaction adds Segment, its merge of
// the segments Removed names.
type journalRecord struct {
	Generation uint64      `json:"generation"`
	NextID     uint64      `json:"next_id"`
	Segment    SegmentMeta `json:"segment"`
	Removed    []uint64    `json:"removed,omitempty"`
}

// Log is a handle on a segment-log directory. The in-memory manifest mirrors
// the on-disk one; mutators update both atomically (disk first), readers
// Reload to pick up other processes' mutations.
type Log struct {
	dir  string
	kind colstore.Kind

	mu  sync.Mutex
	man Manifest
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
	return &Log{dir: dir, kind: kind, man: man}, nil
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
	l := &Log{dir: dir, kind: kind}
	if err := l.storeCheckpointLocked(Manifest{Kind: kind.String(), Generation: 1}); err != nil {
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
// checkpoint must be whole and consistent; the journal's records past the
// checkpoint's generation are applied until the first one that is torn,
// unparsable or refused by apply, which is where a crash may have left it.
func parseManifest(checkpoint, journal []byte) (Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(checkpoint, &man); err != nil {
		return Manifest{}, fmt.Errorf("seglog: parse %s: %w", ManifestName, err)
	}
	if man.Version < 1 || man.Version > manifestVersion {
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
		next, ok := man.apply(rec)
		if !ok {
			break
		}
		man = next
	}
	return man, nil
}

// apply returns the manifest rec makes of m; it is the only manifest
// transition. rec must make the next generation and add a segment m does not
// hold, with an ID below rec.NextID. A seal appends it; a compaction puts it
// where the first removed segment was, and every removed ID must be held. m's
// segments are never written, so a published manifest never changes, but a
// seal may fill the list's spare capacity, so replaying seals stays linear.
func (m Manifest) apply(rec journalRecord) (next Manifest, ok bool) {
	seg := rec.Segment
	// Every ID m holds is below m.NextID, so only such an ID needs the scan.
	held := seg.ID < m.NextID && slices.ContainsFunc(m.Segments, func(s SegmentMeta) bool { return s.ID == seg.ID })
	if rec.Generation != m.Generation+1 || seg.ID >= rec.NextID || held {
		return m, false
	}
	next = m
	next.Generation = rec.Generation
	next.NextID = max(m.NextID, rec.NextID)
	if len(rec.Removed) == 0 {
		next.Segments = append(m.Segments, seg)
		return next, true
	}
	gone := make(map[uint64]bool, len(rec.Removed))
	for _, id := range rec.Removed {
		gone[id] = true
	}
	next.Segments = make([]SegmentMeta, 0, len(m.Segments)+1)
	matched := 0
	for _, s := range m.Segments {
		if !gone[s.ID] {
			next.Segments = append(next.Segments, s)
			continue
		}
		if matched == 0 {
			next.Segments = append(next.Segments, seg)
		}
		matched++
	}
	if matched != len(rec.Removed) {
		return m, false
	}
	next.Compactions++
	return next, true
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Kind returns the record kind the log holds.
func (l *Log) Kind() colstore.Kind { return l.kind }

// Snapshot returns the current in-memory manifest. Its segment list is
// shared and must not be modified.
func (l *Log) Snapshot() Manifest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man
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
	return l.man, nil
}

// SegmentPath returns the absolute path of a segment.
func (l *Log) SegmentPath(m SegmentMeta) string { return filepath.Join(l.dir, m.File) }

// SweepOrphans removes segment files a crash left behind: *.tmp remnants and
// seg-*.vtb files the manifest does not name. Only the log's single mutating
// process may call it (a reader cannot tell an orphan from a segment another
// process committed a moment ago). Returns how many files were removed.
func (l *Log) SweepOrphans() (int, error) {
	l.mu.Lock()
	live := make(map[string]bool, len(l.man.Segments))
	for _, m := range l.man.Segments {
		live[m.File] = true
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

// commit makes rec, whose segment the caller has fsynced, renamed into place
// and made durable with a directory fsync, the log's next generation: apply,
// append to the journal and fsync, then adopt in memory. A broken journal
// commits by checkpoint instead.
func (l *Log) commit(rec journalRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Generation = l.man.Generation + 1
	rec.NextID = max(l.man.NextID, rec.Segment.ID+1)
	next, ok := l.man.apply(rec)
	if !ok {
		// A removed segment is already gone: some other mutator violated the
		// single-mutator rule (or the caller merged from a stale snapshot).
		return fmt.Errorf("seglog: commit of segment %d refused at generation %d: its ID is live or a segment it replaces is gone",
			rec.Segment.ID, l.man.Generation)
	}
	if l.journalBroken {
		return l.storeCheckpointLocked(next)
	}
	if err := l.appendJournalLocked(rec); err != nil {
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
// the journal holds records (or the checkpoint is of an older version),
// writes the result as a new checkpoint and removes the journal. A torn tail
// is thereby dropped before this mutator appends anything after it.
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
		return l.storeCheckpointLocked(l.man)
	}
	return nil
}

// replaceSegments commits a compaction: the removed segments leave the
// manifest and added takes the first one's place (segments a writer appended
// mid-merge keep theirs after it). The removed files stay on disk; the
// caller unlinks them once this returns.
func (l *Log) replaceSegments(removed []SegmentMeta, added SegmentMeta) error {
	rec := journalRecord{Segment: added, Removed: make([]uint64, len(removed))}
	for i, m := range removed {
		rec.Removed[i] = m.ID
	}
	return l.commit(rec)
}

// storeCheckpointLocked writes man as a checkpoint atomically and, on
// success, adopts it in memory: temp file in the same directory, fsync,
// rename over the live name, fsync the directory. A crash anywhere in the
// sequence leaves either the old checkpoint or the new one — never a torn
// mix. Then the journal, every record of which the new checkpoint holds, is
// removed; a crash before that leaves records replay skips as stale. Callers
// hold mu.
func (l *Log) storeCheckpointLocked(man Manifest) error {
	man.Version = manifestVersion
	data, err := json.MarshalIndent(man, "", "  ")
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
	l.man = man
	if err := os.Remove(filepath.Join(l.dir, journalName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// The checkpoint is committed and every record left is stale, but
		// the journal may end torn: commit by checkpoint until it is gone.
		slog.Warn("manifest journal not removed", "dir", l.dir, "error", err.Error())
		l.journalBroken = true
		return nil
	}
	l.journalSynced, l.journalBroken = false, false
	return nil
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
