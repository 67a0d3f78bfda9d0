// Package seglog turns a dataset from one immutable VTB file into a live,
// append-able log of immutable VTB segment files governed by a manifest —
// the LSM-shaped evolution that lets vitaserve answer queries over data that
// never stops arriving. A Writer rolls small time-ordered segments at a
// size/row threshold; a Compactor merges accumulated segments back into one
// large segment re-blocked into global order so zone maps stay tight. Every
// mutation is a write-temp → fsync → rename → manifest store sequence, so a
// crash at any instant leaves the log at its last consistent snapshot:
// readers see only segments the manifest names, and recovery is simply
// ignoring (or sweeping) orphan files.
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
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vita/internal/colstore"
)

// ManifestName is the file that makes a directory a segment log.
const ManifestName = "MANIFEST.json"

// manifestVersion guards against reading manifests written by a future,
// incompatible layout.
const manifestVersion = 1

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
}

// IsLog reports whether dir contains a segment-log manifest.
func IsLog(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil && st.Mode().IsRegular()
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
	if err := l.storeManifestLocked(); err != nil {
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
// a Log.
func LoadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("seglog: parse %s: %w", ManifestName, err)
	}
	if man.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("seglog: unsupported manifest version %d", man.Version)
	}
	if _, err := parseKind(man.Kind); err != nil {
		return Manifest{}, err
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

// Generation returns the current manifest generation.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man.Generation
}

// Reload re-reads the manifest from disk — how a reader process observes a
// writer or compactor running elsewhere. The single-mutator rule makes this
// safe for a pure reader: disk is always at least as new as memory.
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
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range files {
		if l.refs[f]--; l.refs[f] <= 0 {
			delete(l.refs, f)
			if l.tomb[f] {
				delete(l.tomb, f)
				os.Remove(filepath.Join(l.dir, f))
			}
		}
	}
}

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

// appendSegment commits one freshly sealed segment: manifest to disk first,
// then memory.
func (l *Log) appendSegment(meta SegmentMeta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.man.copy()
	next.Segments = append(next.Segments, meta)
	next.Generation++
	if meta.ID >= next.NextID {
		next.NextID = meta.ID + 1
	}
	return l.commitLocked(next)
}

// replaceSegments commits a compaction: the removed segments leave the
// manifest, added takes the first removed segment's position (segments a
// writer appended mid-merge keep their place after it). Removed files are
// deleted immediately unless in-process readers still hold them, in which
// case they are tombstoned for the last ReleaseFiles.
func (l *Log) replaceSegments(removed []SegmentMeta, added SegmentMeta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
		os.Remove(filepath.Join(l.dir, m.File))
	}
	return nil
}

// commitLocked stores next to disk and, on success, adopts it in memory.
// Callers hold mu.
func (l *Log) commitLocked(next Manifest) error {
	saved := l.man
	l.man = next
	if err := l.storeManifestLocked(); err != nil {
		l.man = saved
		return err
	}
	return nil
}

// storeManifestLocked writes the manifest atomically: temp file in the same
// directory, fsync, rename over the live name, fsync the directory. A crash
// anywhere in the sequence leaves either the old manifest or the new one —
// never a torn mix. Callers hold mu.
func (l *Log) storeManifestLocked() error {
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
	return syncDir(l.dir)
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
