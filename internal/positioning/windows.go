package positioning

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"vita/internal/device"
	"vita/internal/rssi"
)

// deviceRanks numbers device IDs by rank in ascending ID order: ids[r] is
// the ID of rank r. Visiting a window's devices by ascending rank visits
// them in sorted-ID order, so every per-window float sum runs in one fixed
// order, whatever the input order.
type deviceRanks []string

// newDeviceRanks ranks the union of the given IDs.
func newDeviceRanks(ids []string) deviceRanks {
	r := slices.Clone(ids)
	slices.Sort(r)
	return slices.Compact(r)
}

// rankDevices ranks a deployment's IDs and returns its devices by rank.
func rankDevices(idx map[string]*device.Device) (deviceRanks, []*device.Device) {
	ids := make([]string, 0, len(idx))
	for id := range idx {
		ids = append(ids, id)
	}
	ranks := newDeviceRanks(ids)
	devs := make([]*device.Device, len(ranks))
	for r, id := range ranks {
		devs[r] = idx[id]
	}
	return ranks, devs
}

// deviceFloors returns the sorted floors of devs (indexed by rank; nil for
// an ID with no deployed device) and, per rank, the index of its floor in
// that list, or -1 for a nil device.
func deviceFloors(devs []*device.Device) (floors, floorOf []int) {
	for _, d := range devs {
		if d != nil {
			floors = append(floors, d.Floor)
		}
	}
	slices.Sort(floors)
	floors = slices.Compact(floors)
	floorOf = make([]int, len(devs))
	for r, d := range devs {
		floorOf[r] = -1
		if d != nil {
			floorOf[r], _ = slices.BinarySearch(floors, d.Floor)
		}
	}
	return floors, floorOf
}

// windowKey identifies one positioning window: an object and the index of
// its sampling period.
type windowKey struct {
	obj int
	idx int64
}

func (a windowKey) compare(b windowKey) int {
	if c := cmp.Compare(a.obj, b.obj); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// windows groups a call's measurements into positioning windows, one per
// (object, sampling period), device-indexed: window slot w holds, for the
// device of rank r, the sum and count of its readings in sum[w*nd+r] and
// cnt[w*nd+r]. The Positioning Method Controller has its own sampling
// frequency that may differ from the RSSI generation frequency (paper §2).
//
// A windows value is scratch: build refills it, and the methods take one
// from windowsPool per call, because they run concurrently on the RSSI
// workers.
type windows struct {
	nd       int
	interval float64
	keys     []windowKey
	sum      []float64
	cnt      []int32
	// order lists the slots in ascending (object, time) order.
	order []int

	slotOf map[windowKey]int
}

var windowsPool = sync.Pool{New: func() any { return &windows{slotOf: make(map[windowKey]int)} }}

// build buckets ms into windows of the given interval (2 s when not
// positive) over the devices of ranks, adding each reading to its slot in
// input order. A reading of a device ID without a rank is an error, naming
// the first such ID.
func (ws *windows) build(ms []rssi.Measurement, interval float64, ranks deviceRanks) error {
	if interval <= 0 {
		interval = 2
	}
	nd := len(ranks)
	ws.nd, ws.interval = nd, interval
	ws.keys, ws.sum, ws.cnt = ws.keys[:0], ws.sum[:0], ws.cnt[:0]
	clear(ws.slotOf)

	lastKey, lastSlot := windowKey{}, -1
	haveID, lastID, lastRank, lastKnown := false, "", 0, false
	for _, m := range ms {
		k := windowKey{obj: m.ObjID, idx: int64(math.Floor(m.T / interval))}
		slot := lastSlot
		if slot < 0 || k != lastKey {
			var ok bool
			if slot, ok = ws.slotOf[k]; !ok {
				slot = len(ws.keys)
				ws.slotOf[k] = slot
				ws.keys = append(ws.keys, k)
				ws.sum = append(ws.sum, make([]float64, nd)...)
				ws.cnt = append(ws.cnt, make([]int32, nd)...)
			}
			lastKey, lastSlot = k, slot
		}
		// Readings arrive device by device, so the rank is looked up once
		// per run of one ID.
		if !haveID || m.DeviceID != lastID {
			haveID, lastID = true, m.DeviceID
			lastRank, lastKnown = slices.BinarySearch(ranks, m.DeviceID)
		}
		if !lastKnown {
			return fmt.Errorf("positioning: measurement references unknown device %s", m.DeviceID)
		}
		ws.sum[slot*nd+lastRank] += m.RSSI
		ws.cnt[slot*nd+lastRank]++
	}

	ws.order = ws.order[:0]
	for slot := range ws.keys {
		ws.order = append(ws.order, slot)
	}
	if !slices.IsSortedFunc(ws.keys, windowKey.compare) {
		slices.SortFunc(ws.order, func(a, b int) int { return ws.keys[a].compare(ws.keys[b]) })
	}
	return nil
}

// t returns the reporting instant of a slot: the middle of its period.
func (ws *windows) t(slot int) float64 {
	return (float64(ws.keys[slot].idx) + 0.5) * ws.interval
}

// mean returns the mean RSSI of rank r in slot, and whether r was heard.
func (ws *windows) mean(slot, r int) (float64, bool) {
	i := slot*ws.nd + r
	if ws.cnt[i] == 0 {
		return 0, false
	}
	return ws.sum[i] / float64(ws.cnt[i]), true
}
