package positioning

import (
	"math"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rssi"
	"vita/internal/topo"
)

// ConversionFunc derives a distance (m) from a noisy RSSI measurement for a
// given device. Users "can define their own RSSI conversion functions"
// (paper §3.3); DefaultConversion wraps the path loss model inversion.
type ConversionFunc func(rssiVal float64, dev *device.Device) float64

// DefaultConversion returns the conversion function inverting the given path
// loss model.
func DefaultConversion(m rssi.PathLossModel) ConversionFunc {
	return func(v float64, dev *device.Device) float64 {
		return m.InvertDistance(v, dev)
	}
}

// TrilaterationConfig configures the trilateration method.
type TrilaterationConfig struct {
	// Convert maps RSSI to distance; nil uses the default path loss
	// inversion with DefaultPathLossModel.
	Convert ConversionFunc
	// SampleInterval is the positioning sampling period (s).
	SampleInterval float64
}

const (
	// minDevices is the minimum circles a window needs (three per §3.3).
	minDevices = 3
	// maxDevices caps how many of the strongest observations are used per
	// window; weak, wall-attenuated signals invert to wildly inflated
	// distances.
	maxDevices = 6
)

// Trilateration infers deterministic locations from the intersection of at
// least three circles, each centered at a positioning device with radius the
// converted distance (paper §3.3). The over-determined system is solved by
// linearized least squares.
//
// Everything a window needs about the deployment is precomputed by
// NewTrilateration: the devices by rank (ascending ID), each device's floor
// as an index into the sorted floor list, and each floor's clamping box.
// Estimate is safe for concurrent use.
type Trilateration struct {
	cfg   TrilaterationConfig
	topo  *topo.Topology
	ranks deviceRanks
	devs  []*device.Device // by rank
	// floorOf[r] indexes floors for the device of rank r; floors is sorted.
	floorOf []int
	floors  []int
	boxes   []floorBox // by floor index
}

// floorBox is a floor's clamping box; ok is false when the floor has no
// partitions to bound it (estimates on it are left as computed).
type floorBox struct {
	box geom.BBox
	ok  bool
}

// NewTrilateration builds the method for a deployment.
func NewTrilateration(t *topo.Topology, devs []*device.Device, cfg TrilaterationConfig) (*Trilateration, error) {
	idx, err := deviceIndex(devs)
	if err != nil {
		return nil, err
	}
	if cfg.Convert == nil {
		cfg.Convert = DefaultConversion(rssi.DefaultPathLossModel())
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 2
	}
	tr := &Trilateration{cfg: cfg, topo: t}
	tr.ranks, tr.devs = rankDevices(idx)
	tr.floors, tr.floorOf = deviceFloors(tr.devs)
	for _, fl := range tr.floors {
		var fb floorBox
		if f, ok := t.B.Floor(fl); ok {
			fb.box = f.BBox()
			fb.ok = !fb.box.IsEmpty()
		}
		tr.boxes = append(tr.boxes, fb)
	}
	return tr, nil
}

// Estimate processes raw RSSI measurements into positioning records. Windows
// observed by fewer than minDevices devices yield no estimate (the method
// needs three circles). A measurement of a device outside the deployment is
// an error.
func (tr *Trilateration) Estimate(ms []rssi.Measurement) ([]Estimate, error) {
	ws := windowsPool.Get().(*windows)
	defer windowsPool.Put(ws)
	if err := ws.build(ms, tr.cfg.SampleInterval, tr.ranks); err != nil {
		return nil, err
	}
	var (
		out    []Estimate
		counts = make([]int, len(tr.floors))
		obs    = make([]reading, 0, len(tr.ranks))
	)
	for _, slot := range ws.order {
		if est, ok := tr.estimateWindow(ws, slot, counts, obs); ok {
			out = append(out, est)
		}
	}
	return out, nil
}

// reading is one device's mean RSSI in a window.
type reading struct {
	rank int
	mean float64
}

// estimateWindow solves one window; counts and obs are scratch.
func (tr *Trilateration) estimateWindow(ws *windows, slot int, counts []int, obs []reading) (Estimate, bool) {
	// Use the floor whose devices observed the window most (the lowest
	// floor on a tie).
	clear(counts)
	for r := range tr.ranks {
		if ws.cnt[slot*ws.nd+r] > 0 {
			counts[tr.floorOf[r]]++
		}
	}
	best := 0
	for fi, n := range counts {
		if n > counts[best] {
			best = fi
		}
	}
	if counts[best] < minDevices {
		return Estimate{}, false
	}
	// Keep the strongest observations: weak signals invert to unreliable,
	// inflated distances. Ties go to the lower rank, i.e. the smaller ID.
	obs = obs[:0]
	for r := range tr.ranks {
		if m, ok := ws.mean(slot, r); ok && tr.floorOf[r] == best {
			i := len(obs)
			obs = append(obs, reading{})
			for ; i > 0 && obs[i-1].mean < m; i-- {
				obs[i] = obs[i-1]
			}
			obs[i] = reading{rank: r, mean: m}
		}
	}
	if len(obs) > maxDevices {
		obs = obs[:maxDevices]
	}

	// Linearize against the first circle:
	//   2(xi-x0)x + 2(yi-y0)y = r0² - ri² + xi² - x0² + yi² - y0²
	// and solve the 2x2 normal equations.
	circle := func(o reading) (geom.Point, float64) {
		d := tr.devs[o.rank]
		r := tr.cfg.Convert(o.mean, d)
		// A detected object is inside the detection range by construction;
		// cap the inverted distance accordingly.
		if max := d.Props.DetectionRange; max > 0 && r > max {
			r = max
		}
		return d.Position, r
	}
	c0, r0 := circle(obs[0])
	x0, y0 := c0.X, c0.Y
	var a11, a12, a22, b1, b2 float64
	for _, o := range obs[1:] {
		c, ri := circle(o)
		ax := 2 * (c.X - x0)
		ay := 2 * (c.Y - y0)
		rhs := r0*r0 - ri*ri + c.X*c.X - x0*x0 + c.Y*c.Y - y0*y0
		a11 += ax * ax
		a12 += ax * ay
		a22 += ay * ay
		b1 += ax * rhs
		b2 += ay * rhs
	}
	det := a11*a22 - a12*a12
	if math.Abs(det) < 1e-9 {
		// Collinear devices: no unique intersection.
		return Estimate{}, false
	}
	x := (b1*a22 - b2*a12) / det
	y := (a11*b2 - a12*b1) / det
	floor := tr.floors[best]
	pt := geom.Pt(x, y)
	if fb := tr.boxes[best]; fb.ok {
		pt = clampTo(fb.box, pt)
	}
	loc := modelLocation(tr.topo, floor, pt)
	return Estimate{ObjID: ws.keys[slot].obj, Loc: loc, T: ws.t(slot)}, true
}

// modelLocation builds the composite location (buildingID + floorID +
// partition/point) for an estimated coordinate. Estimates falling outside
// every partition keep an empty partition ID but remain valid coordinate
// records.
func modelLocation(t *topo.Topology, floor int, pt geom.Point) model.Location {
	if p, ok := t.PartitionAt(floor, pt); ok {
		return model.At(t.B.ID, floor, p.ID, pt)
	}
	return model.At(t.B.ID, floor, "", pt)
}

// clampTo pulls an estimate back into its floor's bounding box: an indoor
// positioning system never reports a location outside the building.
func clampTo(bb geom.BBox, pt geom.Point) geom.Point {
	if pt.X < bb.Min.X {
		pt.X = bb.Min.X
	}
	if pt.X > bb.Max.X {
		pt.X = bb.Max.X
	}
	if pt.Y < bb.Min.Y {
		pt.Y = bb.Min.Y
	}
	if pt.Y > bb.Max.Y {
		pt.Y = bb.Max.Y
	}
	return pt
}
