// Package storage is Vita's Storage component (paper §2, §4.2): repositories
// for every generated data type with spatial/temporal indices, the Data
// Stream APIs used by the Producer, and CSV persistence. It replaces the
// paper's PostgreSQL+PostGIS deployment with stdlib-only in-memory stores;
// docs/ARCHITECTURE.md places them among the layers.
//
// Bulk data on disk — CSV or the VTB format of internal/colstore, detected
// by magic bytes — is read through one API, Cursor: OpenCursor for a file,
// OpenCursorMulti/Merge for the segments of a log, each taking a Kind
// (Trajectory or RSSI) to select the row kind. Everything row-shaped
// (ScanTrajectoryFile, ReadRSSIFile, Copy into a RowWriter) is a short
// drain of a Cursor.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/index"
	"vita/internal/positioning"
	"vita/internal/rssi"
	"vita/internal/trajectory"
)

// TrajectoryStore keeps raw trajectory records (o_id, loc, t) ordered by
// time per object. It is filled one object series at a time (AppendSeries:
// the generation pipeline makes one call per simulated object) and is safe
// for concurrent appends.
//
// Invariant: every read path (Series, All, AllSeries, Scan, and the stream
// aggregates built on them) requires each object's series to be
// time-sorted. Series appended in time order — what the movement engine
// produces — keep the invariant for free; an out-of-order sample is detected
// while appending and flags the object so the next read repairs its series
// with one stable sort. Readers therefore never observe unsorted data, and
// the common in-order case never pays for sorting.
type TrajectoryStore struct {
	mu    sync.RWMutex
	byObj map[int][]trajectory.Sample
	// lastT tracks each object's newest timestamp; dirty marks objects whose
	// appends violated time order and whose series must be sorted on read.
	lastT map[int]float64
	dirty map[int]bool
	count int
}

// NewTrajectoryStore returns an empty store.
func NewTrajectoryStore() *TrajectoryStore {
	return &TrajectoryStore{
		byObj: make(map[int][]trajectory.Sample),
		lastT: make(map[int]float64),
		dirty: make(map[int]bool),
	}
}

// AppendSeries adds the samples of one object (every sample must carry the
// same ObjID), in the order given, with one lock and three map operations
// per call.
//
// Ownership: when the object has no samples yet and series is time-ordered,
// the store keeps series itself rather than a copy — the caller must not
// modify it afterwards, but may go on reading it. The store never writes
// into a kept slice: it is clipped, so a later append to the object
// reallocates, and a series that is out of order is copied, so its repair
// sorts the store's own memory. An out-of-order sample (earlier than the
// object's newest one so far) flags the object exactly as appending its
// samples one by one would.
func (s *TrajectoryStore) AppendSeries(series []trajectory.Sample) {
	if len(series) == 0 {
		return
	}
	id := series[0].ObjID
	s.mu.Lock()
	defer s.mu.Unlock()
	last, seen := s.lastT[id]
	dirty := false
	for i, sm := range series {
		if (!seen && i == 0) || sm.T >= last {
			last = sm.T
		} else {
			dirty = true
		}
	}
	s.lastT[id] = last
	if dirty {
		s.dirty[id] = true
	}
	if cur, ok := s.byObj[id]; ok || dirty {
		s.byObj[id] = append(cur, series...)
	} else {
		s.byObj[id] = series[:len(series):len(series)]
	}
	s.count += len(series)
}

// Unsorted returns how many objects currently hold out-of-order series —
// diagnostics for the time-sorted invariant above (0 for pipeline output).
func (s *TrajectoryStore) Unsorted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dirty)
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
	out := make([]int, 0, len(s.byObj))
	for id := range s.byObj {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Series returns the time-ordered samples of one object. Series stored in
// time order (the pipeline's guarantee) are returned as a plain copy; a
// series flagged by an out-of-order Append is repaired in place with one
// stable sort and unflagged, so only the first read after a violation pays
// for sorting.
func (s *TrajectoryStore) Series(objID int) []trajectory.Sample {
	s.mu.RLock()
	if !s.dirty[objID] {
		src := s.byObj[objID]
		out := make([]trajectory.Sample, len(src))
		copy(out, src)
		s.mu.RUnlock()
		return out
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.repairLocked(objID)
	out := make([]trajectory.Sample, len(src))
	copy(out, src)
	return out
}

// repairLocked returns the object's series after sorting it if it is
// flagged (re-checked under the write lock: another reader may have
// repaired it already). Caller holds s.mu for writing.
func (s *TrajectoryStore) repairLocked(objID int) []trajectory.Sample {
	src := s.byObj[objID]
	if s.dirty[objID] {
		sort.SliceStable(src, func(i, j int) bool { return src[i].T < src[j].T })
		s.lastT[objID] = src[len(src)-1].T
		delete(s.dirty, objID)
	}
	return src
}

// AllSeries returns every object's time-ordered series in ascending object
// ID, repairing flagged series first. The slices are the store's own, not
// copies: the caller must not modify them, and a slice stays valid until the
// next append to its object.
func (s *TrajectoryStore) AllSeries() [][]trajectory.Sample {
	ids := s.Objects()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]trajectory.Sample, len(ids))
	for i, id := range ids {
		out[i] = s.repairLocked(id)
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

// Scan calls fn for every sample in (object, time) order; returning false
// stops the scan. This is the streaming read of the Data Stream APIs.
func (s *TrajectoryStore) Scan(fn func(trajectory.Sample) bool) {
	for _, id := range s.Objects() {
		for _, sm := range s.Series(id) {
			if !fn(sm) {
				return
			}
		}
	}
}

// TimeRange returns the samples of an object within [t0, t1].
func (s *TrajectoryStore) TimeRange(objID int, t0, t1 float64) []trajectory.Sample {
	series := s.Series(objID)
	lo := sort.Search(len(series), func(i int) bool { return series[i].T >= t0 })
	hi := sort.Search(len(series), func(i int) bool { return series[i].T > t1 })
	out := make([]trajectory.Sample, hi-lo)
	copy(out, series[lo:hi])
	return out
}

// WindowQuery returns the samples within the spatial box on the given floor
// and the time window — the snapshot-extraction query of the demo (§5
// step 4).
func (s *TrajectoryStore) WindowQuery(floor int, box geom.BBox, t0, t1 float64) []trajectory.Sample {
	var out []trajectory.Sample
	s.Scan(func(sm trajectory.Sample) bool {
		if sm.Loc.Floor == floor && sm.T >= t0 && sm.T <= t1 && box.Contains(sm.Loc.Point) {
			out = append(out, sm)
		}
		return true
	})
	return out
}

// SnapshotAt returns each object's last known sample at or before t — the
// paper's pause-and-extract-a-snapshot operation.
func (s *TrajectoryStore) SnapshotAt(t float64) []trajectory.Sample {
	var out []trajectory.Sample
	for _, id := range s.Objects() {
		series := s.Series(id)
		idx := sort.Search(len(series), func(i int) bool { return series[i].T > t })
		if idx > 0 {
			out = append(out, series[idx-1])
		}
	}
	return out
}

// RSSIStore keeps raw RSSI measurements (o_id, d_id, rssi, t).
type RSSIStore struct {
	mu  sync.RWMutex
	all []rssi.Measurement
}

// NewRSSIStore returns an empty store.
func NewRSSIStore() *RSSIStore { return &RSSIStore{} }

// Append adds measurements, copying them.
func (s *RSSIStore) Append(ms ...rssi.Measurement) {
	s.mu.Lock()
	s.all = append(s.all, ms...)
	s.mu.Unlock()
}

// Len returns the number of measurements.
func (s *RSSIStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// All returns a copy of every measurement ordered by (object, time, device).
func (s *RSSIStore) All() []rssi.Measurement {
	s.mu.RLock()
	out := make([]rssi.Measurement, len(s.all))
	copy(out, s.all)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ObjID != out[j].ObjID {
			return out[i].ObjID < out[j].ObjID
		}
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].DeviceID < out[j].DeviceID
	})
	return out
}

// ByObject returns the measurements of one object in time order.
func (s *RSSIStore) ByObject(objID int) []rssi.Measurement {
	var out []rssi.Measurement
	for _, m := range s.All() {
		if m.ObjID == objID {
			out = append(out, m)
		}
	}
	return out
}

// ByDevice returns the measurements observed by one device in time order.
func (s *RSSIStore) ByDevice(devID string) []rssi.Measurement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rssi.Measurement
	for _, m := range s.all {
		if m.DeviceID == devID {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// DeviceStore indexes deployed devices spatially per floor.
type DeviceStore struct {
	devs    []*device.Device
	byFloor map[int]*index.RTree
	byID    map[string]*device.Device
}

// NewDeviceStore indexes the given deployment.
func NewDeviceStore(devs []*device.Device) (*DeviceStore, error) {
	s := &DeviceStore{
		devs:    devs,
		byFloor: make(map[int]*index.RTree),
		byID:    make(map[string]*device.Device, len(devs)),
	}
	perFloor := make(map[int][]index.Item)
	for _, d := range devs {
		if _, dup := s.byID[d.ID]; dup {
			return nil, fmt.Errorf("storage: duplicate device ID %s", d.ID)
		}
		s.byID[d.ID] = d
		perFloor[d.Floor] = append(perFloor[d.Floor], d)
	}
	for fl, items := range perFloor {
		s.byFloor[fl] = index.BulkLoad(items)
	}
	return s, nil
}

// Len returns the number of devices.
func (s *DeviceStore) Len() int { return len(s.devs) }

// All returns the deployment.
func (s *DeviceStore) All() []*device.Device { return s.devs }

// Get resolves a device by ID.
func (s *DeviceStore) Get(id string) (*device.Device, bool) {
	d, ok := s.byID[id]
	return d, ok
}

// InRangeOf returns the devices on the floor whose detection disc covers pt.
func (s *DeviceStore) InRangeOf(floor int, pt geom.Point) []*device.Device {
	idx, ok := s.byFloor[floor]
	if !ok {
		return nil
	}
	var out []*device.Device
	for _, it := range idx.SearchPoint(pt, nil) {
		d := it.(*device.Device)
		if d.InRange(pt) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Nearest returns up to k devices on the floor closest to pt.
func (s *DeviceStore) Nearest(floor int, pt geom.Point, k int) []*device.Device {
	idx, ok := s.byFloor[floor]
	if !ok {
		return nil
	}
	items := idx.Nearest(pt, k)
	out := make([]*device.Device, 0, len(items))
	for _, it := range items {
		out = append(out, it.(*device.Device))
	}
	return out
}

// EstimateStore keeps deterministic positioning records.
type EstimateStore struct {
	mu  sync.RWMutex
	all []positioning.Estimate
}

// NewEstimateStore returns an empty store.
func NewEstimateStore() *EstimateStore { return &EstimateStore{} }

// Append adds estimates.
func (s *EstimateStore) Append(es ...positioning.Estimate) {
	s.mu.Lock()
	s.all = append(s.all, es...)
	s.mu.Unlock()
}

// Len returns the number of estimates.
func (s *EstimateStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// All returns the estimates ordered by (object, time).
func (s *EstimateStore) All() []positioning.Estimate {
	s.mu.RLock()
	out := make([]positioning.Estimate, len(s.all))
	copy(out, s.all)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ObjID != out[j].ObjID {
			return out[i].ObjID < out[j].ObjID
		}
		return out[i].T < out[j].T
	})
	return out
}

// ByObject returns one object's estimates in time order.
func (s *EstimateStore) ByObject(objID int) []positioning.Estimate {
	var out []positioning.Estimate
	for _, e := range s.All() {
		if e.ObjID == objID {
			out = append(out, e)
		}
	}
	return out
}

// ProximityStore keeps proximity records.
type ProximityStore struct {
	mu  sync.RWMutex
	all []positioning.ProximityRecord
}

// NewProximityStore returns an empty store.
func NewProximityStore() *ProximityStore { return &ProximityStore{} }

// Append adds records.
func (s *ProximityStore) Append(rs ...positioning.ProximityRecord) {
	s.mu.Lock()
	s.all = append(s.all, rs...)
	s.mu.Unlock()
}

// Len returns the number of records.
func (s *ProximityStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// All returns the records ordered by (object, device, ts).
func (s *ProximityStore) All() []positioning.ProximityRecord {
	s.mu.RLock()
	out := make([]positioning.ProximityRecord, len(s.all))
	copy(out, s.all)
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ObjID != out[j].ObjID {
			return out[i].ObjID < out[j].ObjID
		}
		if out[i].DeviceID != out[j].DeviceID {
			return out[i].DeviceID < out[j].DeviceID
		}
		return out[i].TS < out[j].TS
	})
	return out
}

// CollocatedWith returns the objects detected by the device during [t0, t1].
func (s *ProximityStore) CollocatedWith(devID string, t0, t1 float64) []int {
	seen := make(map[int]bool)
	for _, r := range s.All() {
		if r.DeviceID == devID && r.TS <= t1 && r.TE >= t0 {
			seen[r.ObjID] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
