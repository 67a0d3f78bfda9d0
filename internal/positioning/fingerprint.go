package positioning

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
)

// RefPoint is one reference location of a radio map with its collected
// fingerprint statistics: per-device mean RSSI and standard deviation.
type RefPoint struct {
	Loc    model.Location
	Mean   map[string]float64
	Stddev map[string]float64
}

// RadioMap is the training data of the fingerprinting method: fingerprints
// collected at a set of reference locations during the offline site-survey
// phase (paper §3.3).
type RadioMap struct {
	Refs []RefPoint
	// Devices lists the device IDs appearing in the map, sorted.
	Devices []string
}

// RadioMapConfig configures radio map construction.
type RadioMapConfig struct {
	// Spacing is the reference-location grid spacing (m). Vita "first allows
	// users to select a set of reference locations on a given floor"; the
	// grid realizes the default selection, and explicit Refs override it.
	Spacing float64
	// Refs optionally gives explicit reference locations.
	Refs []model.Location
	// Model generates the survey measurements.
	Model rssi.PathLossModel
	// Floors restricts the survey to these floors; empty = all floors.
	Floors []int
}

// surveySamples is how many site-survey samples are averaged per reference
// location.
const surveySamples = 10

// BuildRadioMap performs the offline phase: it selects reference locations
// and simulates objects collecting fingerprints there (paper §3.3: "Vita
// simulates some objects to collect the fingerprints at the selected
// reference locations").
func BuildRadioMap(t *topo.Topology, devs []*device.Device, cfg RadioMapConfig, r *rng.Rand) (*RadioMap, error) {
	if cfg.Spacing <= 0 {
		cfg.Spacing = 4
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	refs := cfg.Refs
	if len(refs) == 0 {
		refs = gridReferenceLocations(t, cfg.Spacing, cfg.Floors)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("positioning: no reference locations selected")
	}

	byFloor := make(map[int][]*device.Device)
	ids := make(map[string]bool)
	for _, d := range devs {
		byFloor[d.Floor] = append(byFloor[d.Floor], d)
		ids[d.ID] = true
	}

	rm := &RadioMap{}
	for id := range ids {
		rm.Devices = append(rm.Devices, id)
	}
	sort.Strings(rm.Devices)

	for _, loc := range refs {
		rp := RefPoint{
			Loc:    loc,
			Mean:   make(map[string]float64),
			Stddev: make(map[string]float64),
		}
		for _, d := range byFloor[loc.Floor] {
			dist := d.Position.Dist(loc.Point)
			if dist > d.Props.DetectionRange {
				continue
			}
			crossings := 0
			if cfg.Model.UseLineOfSight {
				crossings = t.Crossings(loc.Floor, d.Position, loc.Point)
			}
			var sum, sum2 float64
			for s := 0; s < surveySamples; s++ {
				v := cfg.Model.At(dist, crossings, d, r)
				sum += v
				sum2 += v * v
			}
			n := float64(surveySamples)
			mean := sum / n
			variance := sum2/n - mean*mean
			if variance < 0.25 {
				variance = 0.25 // avoid degenerate Gaussians
			}
			rp.Mean[d.ID] = mean
			rp.Stddev[d.ID] = math.Sqrt(variance)
		}
		if len(rp.Mean) > 0 {
			rm.Refs = append(rm.Refs, rp)
		}
	}
	if len(rm.Refs) == 0 {
		return nil, fmt.Errorf("positioning: radio map empty — no reference location hears any device")
	}
	return rm, nil
}

// gridReferenceLocations lays a grid of the given spacing over every
// partition of the selected floors.
func gridReferenceLocations(t *topo.Topology, spacing float64, floors []int) []model.Location {
	var out []model.Location
	for _, f := range t.B.Floors {
		if len(floors) > 0 && !slices.Contains(floors, f.Level) {
			continue
		}
		bb := f.BBox()
		for x := bb.Min.X + spacing/2; x < bb.Max.X; x += spacing {
			for y := bb.Min.Y + spacing/2; y < bb.Max.Y; y += spacing {
				pt := geom.Pt(x, y)
				if p, ok := f.PartitionAt(pt); ok {
					out = append(out, model.At(t.B.ID, f.Level, p.ID, pt))
				}
			}
		}
	}
	return out
}

// FingerprintAlgorithm selects the online inference algorithm.
type FingerprintAlgorithm int

// Fingerprinting algorithms (paper §3.3: "deterministic or probabilistic").
const (
	// KNN is the deterministic k-nearest-neighbors-in-signal-space
	// algorithm; the estimate is the distance-weighted centroid of the k
	// nearest reference locations.
	KNN FingerprintAlgorithm = iota
	// NaiveBayes is the probabilistic algorithm: a Gaussian naive Bayes
	// posterior over reference locations.
	NaiveBayes
)

// String implements fmt.Stringer.
func (a FingerprintAlgorithm) String() string {
	if a == NaiveBayes {
		return "naive-bayes"
	}
	return "knn"
}

// FingerprintConfig configures the online phase.
type FingerprintConfig struct {
	Algorithm FingerprintAlgorithm
	// K is the neighbor count (KNN) or the number of candidates reported
	// (NaiveBayes).
	K int
	// SampleInterval is the positioning sampling period (s).
	SampleInterval float64
}

// Fingerprinting is the online positioning method over a built radio map.
//
// NewFingerprinting lays the radio map out by device rank, over the union of
// the deployment's and the map's device IDs, so scoring a window against
// reference i reads flat arrays: refMean, refSD and refHas at i*nd+r for the
// device of rank r, and refRanks[i] lists the ranks reference i heard in
// ascending order. The map itself is left as built. Estimate and
// EstimateProbabilistic are safe for concurrent use.
type Fingerprinting struct {
	cfg   FingerprintConfig
	rm    *RadioMap
	ranks deviceRanks
	// floorOf[r] indexes floors for the deployed device of rank r, and is -1
	// for an ID only the radio map knows; floors is sorted.
	floorOf []int
	floors  []int

	refMean, refSD []float64
	refHas         []bool
	refRanks       [][]int
	// refsOn lists each floor's reference indices in ascending order.
	refsOn map[int][]int
}

// NewFingerprinting builds the method for the deployment that produced the
// radio map.
func NewFingerprinting(rm *RadioMap, devs []*device.Device, cfg FingerprintConfig) (*Fingerprinting, error) {
	if rm == nil || len(rm.Refs) == 0 {
		return nil, fmt.Errorf("positioning: empty radio map")
	}
	idx, err := deviceIndex(devs)
	if err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 2
	}
	ids := append([]string(nil), rm.Devices...)
	for id := range idx {
		ids = append(ids, id)
	}
	for _, ref := range rm.Refs {
		for id := range ref.Mean {
			ids = append(ids, id)
		}
	}
	fp := &Fingerprinting{cfg: cfg, rm: rm, ranks: newDeviceRanks(ids), refsOn: make(map[int][]int)}
	byRank := make([]*device.Device, len(fp.ranks))
	for r, id := range fp.ranks {
		byRank[r] = idx[id]
	}
	fp.floors, fp.floorOf = deviceFloors(byRank)

	nd := len(fp.ranks)
	fp.refMean = make([]float64, len(rm.Refs)*nd)
	fp.refSD = make([]float64, len(rm.Refs)*nd)
	fp.refHas = make([]bool, len(rm.Refs)*nd)
	fp.refRanks = make([][]int, len(rm.Refs))
	for i, ref := range rm.Refs {
		for r, id := range fp.ranks {
			if mean, ok := ref.Mean[id]; ok {
				fp.refMean[i*nd+r], fp.refSD[i*nd+r], fp.refHas[i*nd+r] = mean, ref.Stddev[id], true
				fp.refRanks[i] = append(fp.refRanks[i], r)
			}
		}
		fp.refsOn[ref.Loc.Floor] = append(fp.refsOn[ref.Loc.Floor], i)
	}
	return fp, nil
}

// Estimate runs the deterministic algorithm (KNN, or the Bayes argmax when
// the algorithm is NaiveBayes), producing (o_id, loc, t) records. A
// measurement of a device neither deployed nor in the radio map is an
// error.
func (fp *Fingerprinting) Estimate(ms []rssi.Measurement) ([]Estimate, error) {
	if fp.cfg.Algorithm == NaiveBayes {
		pes, err := fp.EstimateProbabilistic(ms)
		return TopEstimates(pes), err
	}
	var out []Estimate
	err := fp.eachWindow(ms, func(ws *windows, slot, floor int, obs []reading, top []scored) {
		if est, ok := fp.knnWindow(ws, slot, floor, obs, top); ok {
			out = append(out, est)
		}
	})
	return out, err
}

// TopEstimates reduces probabilistic records to deterministic ones, each at
// its most probable candidate.
func TopEstimates(pes []ProbEstimate) []Estimate {
	var out []Estimate
	for _, pe := range pes {
		if top, ok := pe.Top(); ok {
			out = append(out, Estimate{ObjID: pe.ObjID, Loc: top.Loc, T: pe.T})
		}
	}
	return out
}

// EstimateProbabilistic runs the probabilistic algorithm, producing
// (o_id, {(loc_i, prob_i)}, t) records. A measurement of a device neither
// deployed nor in the radio map is an error.
func (fp *Fingerprinting) EstimateProbabilistic(ms []rssi.Measurement) ([]ProbEstimate, error) {
	var out []ProbEstimate
	err := fp.eachWindow(ms, func(ws *windows, slot, floor int, obs []reading, top []scored) {
		if pe, ok := fp.bayesWindow(ws, slot, floor, obs, top); ok {
			out = append(out, pe)
		}
	})
	return out, err
}

// scored is a reference point's score against one window.
type scored struct {
	i int
	v float64
}

// eachWindow builds the windows of ms and calls fn for each in (object,
// time) order with the window's majority floor and its readings in
// ascending device-ID order, plus an empty top-K buffer.
func (fp *Fingerprinting) eachWindow(ms []rssi.Measurement, fn func(ws *windows, slot, floor int, obs []reading, top []scored)) error {
	ws := windowsPool.Get().(*windows)
	defer windowsPool.Put(ws)
	if err := ws.build(ms, fp.cfg.SampleInterval, fp.ranks); err != nil {
		return err
	}
	counts := make([]int, len(fp.floors))
	obs := make([]reading, 0, len(fp.ranks))
	top := make([]scored, 0, fp.cfg.K)
	for _, slot := range ws.order {
		obs = obs[:0]
		for r := range fp.ranks {
			if m, ok := ws.mean(slot, r); ok {
				obs = append(obs, reading{rank: r, mean: m})
			}
		}
		fn(ws, slot, fp.majorityFloor(ws, slot, counts), obs, top[:0])
	}
	return nil
}

// majorityFloor picks the floor of the deployed devices dominating the
// window (the lowest floor on a tie), falling back to the radio map's first
// reference floor when no deployed device was heard. counts is scratch.
func (fp *Fingerprinting) majorityFloor(ws *windows, slot int, counts []int) int {
	clear(counts)
	for r, fi := range fp.floorOf {
		if fi >= 0 && ws.cnt[slot*ws.nd+r] > 0 {
			counts[fi]++
		}
	}
	best := -1
	for fi, n := range counts {
		if n > 0 && (best < 0 || n > counts[best]) {
			best = fi
		}
	}
	if best < 0 {
		return fp.rm.Refs[0].Loc.Floor
	}
	return fp.floors[best]
}

// keepTop inserts c into top, the best candidates so far (at most k, best
// first). Candidates arrive in ascending reference index, and the index
// breaks ties, so c outranks an entry only when better(c.v, entry.v) holds
// strictly: the result is the first k of a full sort by (score, index).
func keepTop(top []scored, k int, c scored, better func(a, b float64) bool) []scored {
	j := len(top)
	for j > 0 && better(c.v, top[j-1].v) {
		j--
	}
	if j >= k {
		return top
	}
	if len(top) < k {
		top = append(top, scored{})
	}
	copy(top[j+1:], top[j:len(top)-1])
	top[j] = c
	return top
}

func lessScore(a, b float64) bool    { return a < b }
func greaterScore(a, b float64) bool { return a > b }

// knnWindow finds the k reference points nearest in signal space and returns
// their inverse-distance-weighted centroid.
func (fp *Fingerprinting) knnWindow(ws *windows, slot, floor int, obs []reading, top []scored) (Estimate, bool) {
	for _, i := range fp.refsOn[floor] {
		d, n := fp.signalDistance(ws, slot, obs, i)
		if n == 0 {
			continue
		}
		top = keepTop(top, fp.cfg.K, scored{i: i, v: d}, lessScore)
	}
	if len(top) == 0 {
		return Estimate{}, false
	}
	var wx, wy, wsum float64
	first := fp.rm.Refs[top[0].i].Loc
	for _, c := range top {
		ref := fp.rm.Refs[c.i]
		wgt := 1 / (c.v + 0.1)
		wx += ref.Loc.Point.X * wgt
		wy += ref.Loc.Point.Y * wgt
		wsum += wgt
	}
	pt := geom.Pt(wx/wsum, wy/wsum)
	loc := model.At(first.Building, first.Floor, first.Partition, pt)
	return Estimate{ObjID: ws.keys[slot].obj, Loc: loc, T: ws.t(slot)}, true
}

// bayesWindow computes the naive Bayes posterior over reference locations.
func (fp *Fingerprinting) bayesWindow(ws *windows, slot, floor int, obs []reading, top []scored) (ProbEstimate, bool) {
	for _, i := range fp.refsOn[floor] {
		logp, n := fp.logLikelihood(obs, i)
		if n == 0 {
			continue
		}
		top = keepTop(top, fp.cfg.K, scored{i: i, v: logp}, greaterScore)
	}
	if len(top) == 0 {
		return ProbEstimate{}, false
	}
	// Normalize in probability space, guarding against underflow.
	pe := ProbEstimate{ObjID: ws.keys[slot].obj, T: ws.t(slot), Candidates: make([]Candidate, len(top))}
	var total float64
	for i, c := range top {
		p := math.Exp(c.v - top[0].v)
		pe.Candidates[i] = Candidate{Loc: fp.rm.Refs[c.i].Loc, Prob: p}
		total += p
	}
	for i := range pe.Candidates {
		pe.Candidates[i].Prob /= total
	}
	return pe, true
}

// missingRSSI (dBm) is the signal floor substituted for a device a window or
// a reference location did not hear.
const missingRSSI = -100.0

// signalDistance is the Euclidean distance in signal space between the
// window and reference i over the union of the devices either heard,
// substituting missingRSSI for unheard devices. It returns the distance and
// the number of devices compared. Both loops run in ascending device-ID
// order, so the float sum does not depend on map iteration order.
func (fp *Fingerprinting) signalDistance(ws *windows, slot int, obs []reading, i int) (float64, int) {
	nd := len(fp.ranks)
	var sum float64
	n := 0
	for _, o := range obs {
		mean := missingRSSI
		if fp.refHas[i*nd+o.rank] {
			mean = fp.refMean[i*nd+o.rank]
		}
		d := o.mean - mean
		sum += d * d
		n++
	}
	heard := ws.cnt[slot*nd : slot*nd+nd]
	for _, r := range fp.refRanks[i] {
		if heard[r] > 0 {
			continue
		}
		d := missingRSSI - fp.refMean[i*nd+r]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Sqrt(sum / float64(n)), n
}

// logLikelihood is the Gaussian naive Bayes log likelihood of the observed
// fingerprint at reference i.
func (fp *Fingerprinting) logLikelihood(obs []reading, i int) (float64, int) {
	nd := len(fp.ranks)
	var lp float64
	n := 0
	for _, o := range obs {
		mean, sd := missingRSSI, 5.0
		if fp.refHas[i*nd+o.rank] {
			mean, sd = fp.refMean[i*nd+o.rank], fp.refSD[i*nd+o.rank]
		}
		if sd <= 0 {
			sd = 1
		}
		z := (o.mean - mean) / sd
		lp += -0.5*z*z - math.Log(sd)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return lp, n
}
