// Package storage is Vita's Storage component (paper §2, §4.2) without its
// query engine: TrajectoryStore, the in-memory repository of a run's
// trajectories; Cursor, the one read path over bulk data on disk; the
// RowWriters that write it; and CSV persistence. It replaces the paper's
// PostgreSQL+PostGIS deployment with stdlib-only code. The Data Stream APIs
// — snapshot, window and nearest-object queries — are plans of
// internal/plan, run by internal/serve over files and by callers over
// TrajectoryStore.All; docs/ARCHITECTURE.md places the packages among the
// layers.
//
// Bulk data on disk — CSV or the VTB format of internal/colstore, detected
// by magic bytes — is read through one API, Cursor: OpenCursor for a file,
// OpenCursorMulti/Merge for the segments of a log, each taking a Kind
// (Trajectory or RSSI) to select the row kind; estimate files share the
// trajectory schema and read as Trajectory. There is no other read entry
// point: a caller drains the cursor, or Copies it into a RowWriter.
package storage

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"vita/internal/trajectory"
)

// TrajectoryStore keeps raw trajectory records (o_id, loc, t) ordered by
// time per object. It is filled one object series at a time (AppendSeries:
// the generation pipeline makes one call per simulated object) and is safe
// for concurrent appends.
//
// Invariant: outside AppendSeries every object's series is time-sorted.
// Series appended in time order — what the movement engine produces — keep
// the invariant for free; an append that breaks time order sorts the
// object's series before it returns, so no read path ever sorts.
type TrajectoryStore struct {
	mu    sync.RWMutex
	byObj map[int][]trajectory.Sample
	count int
}

// NewTrajectoryStore returns an empty store.
func NewTrajectoryStore() *TrajectoryStore {
	return &TrajectoryStore{byObj: make(map[int][]trajectory.Sample)}
}

// byTime orders samples by timestamp.
func byTime(a, b trajectory.Sample) int { return cmp.Compare(a.T, b.T) }

// AppendSeries adds the samples of one object (every sample must carry the
// same ObjID) with one lock and one map update per call. When the samples do
// not continue the object's series in time order, the series is stable-sorted
// by time under the lock, so samples with equal timestamps keep the order
// they were appended in.
//
// Ownership: when the object has no samples yet and series is time-ordered,
// the store keeps series itself rather than a copy — the caller must not
// modify it afterwards, but may go on reading it. The store never writes
// into a kept slice: it is clipped, so a later append to the object
// reallocates, and a series that is out of order is copied before it is
// sorted.
func (s *TrajectoryStore) AppendSeries(series []trajectory.Sample) {
	if len(series) == 0 {
		return
	}
	id := series[0].ObjID
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, seen := s.byObj[id]
	ordered := (len(cur) == 0 || cur[len(cur)-1].T <= series[0].T) && slices.IsSortedFunc(series, byTime)
	if seen || !ordered {
		cur = append(cur, series...)
		if !ordered {
			slices.SortStableFunc(cur, byTime)
		}
	} else {
		cur = series[:len(series):len(series)]
	}
	s.byObj[id] = cur
	s.count += len(series)
}

// Len returns the number of stored samples.
func (s *TrajectoryStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Objects returns the stored object IDs, sorted.
func (s *TrajectoryStore) Objects() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Sorted(maps.Keys(s.byObj))
}

// Series returns a copy of the time-ordered samples of one object.
func (s *TrajectoryStore) Series(objID int) []trajectory.Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.byObj[objID])
}

// AllSeries returns every object's time-ordered series in ascending object
// ID. The slices are the store's own, not copies: the caller must not modify
// them, and a slice stays valid until the next append to its object.
func (s *TrajectoryStore) AllSeries() [][]trajectory.Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]trajectory.Sample, 0, len(s.byObj))
	for _, id := range slices.Sorted(maps.Keys(s.byObj)) {
		out = append(out, s.byObj[id])
	}
	return out
}

// All returns every sample ordered by (object, time).
func (s *TrajectoryStore) All() []trajectory.Sample {
	out := make([]trajectory.Sample, 0, s.Len())
	for _, id := range s.Objects() {
		out = append(out, s.Series(id)...)
	}
	return out
}
