package positioning

import (
	"sort"

	"vita/internal/device"
	"vita/internal/rssi"
)

// gapFactor scales a device's sampling interval to decide when a detection
// period ends: a gap longer than gapFactor × interval means the object left
// the detection range ("the thresholding method" of §3.3).
const gapFactor = 1.5

// Proximity estimates symbolic relative locations: an object detected by a
// device is collocated with it for the detection period (paper §3.3). The
// method "does not require any extra configurations since the positioning
// device's detection range and frequency are already configured in the
// infrastructure layer" (§3.3).
type Proximity struct {
	devs map[string]*device.Device
	// interval, when > 0, is the sampling interval every device was
	// measured at, overriding each device's own.
	interval float64
}

// NewProximity builds the method for a deployment. sampleInterval is the
// interval the measurements were generated at when it overrode every
// device's own (rssi.Config.SampleInterval); 0 means each device sampled at
// its own.
func NewProximity(devs []*device.Device, sampleInterval float64) (*Proximity, error) {
	idx, err := deviceIndex(devs)
	if err != nil {
		return nil, err
	}
	return &Proximity{devs: idx, interval: sampleInterval}, nil
}

// Records converts raw RSSI measurements into proximity records
// (o_id, d_id, ts, te). A detection period for an (object, device) pair ends
// when no measurement arrives within gapFactor sampling intervals.
func (p *Proximity) Records(ms []rssi.Measurement) ([]ProximityRecord, error) {
	type key struct {
		obj int
		dev string
	}
	times := make(map[key][]float64)
	for _, m := range ms {
		k := key{obj: m.ObjID, dev: m.DeviceID}
		times[k] = append(times[k], m.T)
	}
	keys := make([]key, 0, len(times))
	for k := range times {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj != keys[j].obj {
			return keys[i].obj < keys[j].obj
		}
		return keys[i].dev < keys[j].dev
	})

	var out []ProximityRecord
	for _, k := range keys {
		ts := times[k]
		sort.Float64s(ts)
		interval := 2.0
		if p.interval > 0 {
			interval = p.interval
		} else if d, ok := p.devs[k.dev]; ok && d.Props.SampleInterval > 0 {
			interval = d.Props.SampleInterval
		}
		maxGap := interval * gapFactor
		start := ts[0]
		prev := ts[0]
		for _, t := range ts[1:] {
			if t-prev > maxGap {
				out = append(out, ProximityRecord{ObjID: k.obj, DeviceID: k.dev, TS: start, TE: prev})
				start = t
			}
			prev = t
		}
		out = append(out, ProximityRecord{ObjID: k.obj, DeviceID: k.dev, TS: start, TE: prev})
	}
	return out, nil
}
