package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sync/atomic"
	"time"

	"vita/internal/colstore"
	"vita/internal/seglog"
)

// The segment registry is how a Dataset serves data that is still being
// written: instead of one trajectory reader it holds an immutable snapshot of
// open readers — a segmentSet — built from one manifest generation of an
// internal/seglog log. Queries retain the set they started on, so a refresh
// mid-query never closes a reader out from under a scan; the old set's
// readers close when the last in-flight query drains. A compaction may unlink
// a segment file while a set still reads it: an open reader holds the file's
// mapping (or its bytes), not the file. Single-file datasets ride the same
// machinery as a static one-segment set (segment ID 0, no log), so there is
// exactly one scan pipeline to get right.

// segReader is one open segment: its VTB reader, its resident zone maps, and
// a reference count tying the reader's lifetime to the segment sets that
// include it.
type segReader struct {
	id    uint64
	tr    *colstore.TrajectoryReader
	zones []colstore.ZoneMap
	refs  atomic.Int32
	// superseded is set once a refresh finds the segment gone from the live
	// set: a compaction merged it, and its file is (or soon will be) unlinked.
	superseded atomic.Bool
}

func (s *segReader) retain() { s.refs.Add(1) }

// release drops one reference; the last one closes the reader. A superseded
// reader closes on its own goroutine: unmapping an unlinked file frees its
// blocks, tens of milliseconds a file on a disk that discards them, and the
// last release may be a query's.
func (s *segReader) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if s.superseded.Load() {
		go s.tr.Close()
		return
	}
	_ = s.tr.Close()
}

// segmentSet is an immutable snapshot of the segments serving one manifest
// generation. It is born with one reference (the Dataset's ownership);
// queries retain it for their duration, so swapping in a new set never
// invalidates a scan in flight.
type segmentSet struct {
	gen  uint64
	segs []*segReader
	refs atomic.Int32
}

func newSegmentSet(gen uint64, segs []*segReader) *segmentSet {
	set := &segmentSet{gen: gen, segs: segs}
	set.refs.Store(1)
	return set
}

func (s *segmentSet) retain() { s.refs.Add(1) }

func (s *segmentSet) release() {
	if s.refs.Add(-1) == 0 {
		for _, sg := range s.segs {
			sg.release()
		}
	}
}

// acquireSet retains and returns the current segment set, or nil after Close.
func (d *Dataset) acquireSet() *segmentSet {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cur != nil {
		d.cur.retain()
	}
	return d.cur
}

// buildSet opens readers for every segment in man, reusing prev's readers for
// segments both generations share — a refresh after an append re-opens only
// the new tail, and a refresh after compaction opens one merged file.
func (d *Dataset) buildSet(man seglog.Manifest, prev *segmentSet) (*segmentSet, error) {
	held := make(map[uint64]*segReader)
	if prev != nil {
		for _, sg := range prev.segs {
			held[sg.id] = sg
		}
	}
	segs := make([]*segReader, 0, len(man.Segments))
	fail := func(err error) (*segmentSet, error) {
		for _, sg := range segs {
			sg.release()
		}
		return nil, err
	}
	for _, m := range man.Segments {
		if sg, ok := held[m.ID]; ok {
			sg.retain()
			segs = append(segs, sg)
			continue
		}
		tr, err := colstore.OpenTrajectory(d.log.SegmentPath(m))
		if err != nil {
			return fail(fmt.Errorf("serve: segment %s: %w", m.File, err))
		}
		sg := &segReader{id: m.ID, tr: tr, zones: tr.Blocks()}
		sg.refs.Store(1)
		segs = append(segs, sg)
	}
	return newSegmentSet(man.Generation, segs), nil
}

// buildCurrent is buildSet that rides out one race: between reading a
// manifest and opening its files, a compaction — in this process or another
// — may commit a newer generation and unlink segments the manifest names.
// A segment found missing sends it back to the manifest, for as long as the
// generation has moved; a missing segment under an unchanged generation is
// an error. It returns the manifest the set was built from.
func (d *Dataset) buildCurrent(man seglog.Manifest, prev *segmentSet) (seglog.Manifest, *segmentSet, error) {
	for {
		set, err := d.buildSet(man, prev)
		if !errors.Is(err, fs.ErrNotExist) {
			return man, set, err
		}
		next, rerr := d.log.Reload()
		if rerr != nil || next.Generation == man.Generation {
			return man, nil, err
		}
		man = next
	}
}

// Refresh reloads the log's manifest and, if its generation moved, swaps in a
// segment set for the new generation, reporting whether anything changed.
// In-flight queries keep the set they started on; the block cache is
// invalidated precisely — only entries of segments that left the live set.
// The watcher goroutine calls this on a timer; callers embedding a Dataset
// can call it directly after writing.
func (d *Dataset) Refresh() (bool, error) {
	if d.log == nil {
		return false, nil
	}
	// One refresh at a time; concurrent queries are unaffected (d.mu is held
	// only for the pointer swap).
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()

	man, err := d.log.Reload()
	if err != nil {
		return false, err
	}

	d.mu.Lock()
	prev := d.cur
	if prev == nil {
		d.mu.Unlock()
		return false, errClosed
	}
	if man.Generation == prev.gen {
		d.mu.Unlock()
		return false, nil
	}
	prev.retain()
	d.mu.Unlock()

	man, next, err := d.buildCurrent(man, prev)
	if err != nil {
		prev.release()
		return false, err
	}

	d.mu.Lock()
	old := d.cur
	if old == nil { // closed while building
		d.mu.Unlock()
		prev.release()
		next.release()
		return false, errClosed
	}
	d.cur = next
	d.man = man
	d.mu.Unlock()

	live := make(map[uint64]bool, len(next.segs))
	for _, sg := range next.segs {
		live[sg.id] = true
	}
	var dead []uint64
	for _, sg := range old.segs {
		if !live[sg.id] {
			sg.superseded.Store(true)
			dead = append(dead, sg.id)
		}
	}
	d.blockInval.Add(d.cache.EvictSegments(dead))
	old.release()  // the Dataset's ownership of the displaced set
	prev.release() // this refresh's temporary hold
	d.refreshes.Add(1)
	slog.Info("manifest refresh",
		"generation", man.Generation,
		"segments", len(next.segs),
		"compactions", man.Compactions,
		"dir", d.dir)
	return true, nil
}

// poll refreshes from the manifest until Close. Refresh errors are logged at
// debug and otherwise dropped: a torn-state read (a writer mid-commit in
// another process) heals on the next tick, and there is no caller to report
// to.
func (d *Dataset) poll(every time.Duration) {
	defer d.watchWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.stopWatch:
			return
		case <-t.C:
			if _, err := d.Refresh(); err != nil && err != errClosed {
				slog.Debug("manifest watch refresh", "error", err.Error(), "dir", d.dir)
			}
		}
	}
}
