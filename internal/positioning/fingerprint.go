package positioning

import (
	"fmt"
	"math"
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
	// MissingRSSI substitutes for devices unheard at a location (signal
	// floor).
	MissingRSSI float64
}

// RadioMapConfig configures radio map construction.
type RadioMapConfig struct {
	// Spacing is the reference-location grid spacing (m). Vita "first allows
	// users to select a set of reference locations on a given floor"; the
	// grid realizes the default selection, and explicit Refs override it.
	Spacing float64
	// Refs optionally gives explicit reference locations.
	Refs []model.Location
	// SurveySamples is how many site-survey samples are averaged per
	// reference location.
	SurveySamples int
	// Model generates the survey measurements.
	Model rssi.PathLossModel
	// MissingRSSI is the floor value for unheard devices (default -100 dBm).
	MissingRSSI float64
	// Floors restricts the survey to these floors; empty = all floors.
	Floors []int
}

// BuildRadioMap performs the offline phase: it selects reference locations
// and simulates objects collecting fingerprints there (paper §3.3: "Vita
// simulates some objects to collect the fingerprints at the selected
// reference locations").
func BuildRadioMap(t *topo.Topology, devs []*device.Device, cfg RadioMapConfig, r *rng.Rand) (*RadioMap, error) {
	if cfg.Spacing <= 0 {
		cfg.Spacing = 4
	}
	if cfg.SurveySamples <= 0 {
		cfg.SurveySamples = 10
	}
	if cfg.MissingRSSI == 0 {
		cfg.MissingRSSI = -100
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

	rm := &RadioMap{MissingRSSI: cfg.MissingRSSI}
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
			for s := 0; s < cfg.SurveySamples; s++ {
				v := cfg.Model.At(dist, crossings, d, r)
				sum += v
				sum2 += v * v
			}
			n := float64(cfg.SurveySamples)
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
	floorSet := make(map[int]bool)
	for _, f := range floors {
		floorSet[f] = true
	}
	var out []model.Location
	for _, level := range t.B.FloorLevels() {
		if len(floorSet) > 0 && !floorSet[level] {
			continue
		}
		f := t.B.Floors[level]
		bb := f.BBox()
		for x := bb.Min.X + spacing/2; x < bb.Max.X; x += spacing {
			for y := bb.Min.Y + spacing/2; y < bb.Max.Y; y += spacing {
				pt := geom.Pt(x, y)
				if p, ok := f.PartitionAt(pt); ok {
					out = append(out, model.At(t.B.ID, level, p.ID, pt))
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
type Fingerprinting struct {
	cfg  FingerprintConfig
	rm   *RadioMap
	devs map[string]*device.Device
	// refKeys caches each reference point's device IDs in sorted order, so
	// the per-(window × reference) scoring loops accumulate floats in a
	// stable order without re-sorting map keys on every call.
	refKeys [][]string
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
	refKeys := make([][]string, len(rm.Refs))
	for i, ref := range rm.Refs {
		refKeys[i] = sortedKeys(ref.Mean)
	}
	return &Fingerprinting{cfg: cfg, rm: rm, devs: idx, refKeys: refKeys}, nil
}

// Estimate runs the deterministic algorithm (KNN, or the Bayes argmax when
// the algorithm is NaiveBayes), producing (o_id, loc, t) records.
func (fp *Fingerprinting) Estimate(ms []rssi.Measurement) ([]Estimate, error) {
	if fp.cfg.Algorithm == NaiveBayes {
		pes, err := fp.EstimateProbabilistic(ms)
		return TopEstimates(pes), err
	}
	var out []Estimate
	for _, w := range windowize(ms, fp.cfg.SampleInterval) {
		if est, ok := fp.knnWindow(w); ok {
			out = append(out, est)
		}
	}
	return out, nil
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
// (o_id, {(loc_i, prob_i)}, t) records.
func (fp *Fingerprinting) EstimateProbabilistic(ms []rssi.Measurement) ([]ProbEstimate, error) {
	var out []ProbEstimate
	for _, w := range windowize(ms, fp.cfg.SampleInterval) {
		if pe, ok := fp.bayesWindow(w); ok {
			out = append(out, pe)
		}
	}
	return out, nil
}

// knnWindow finds the k reference points nearest in signal space and returns
// their inverse-distance-weighted centroid.
func (fp *Fingerprinting) knnWindow(w window) (Estimate, bool) {
	type scored struct {
		i    int
		dist float64
	}
	floor := fp.majorityFloorOf(w)
	obsKeys := sortedKeys(w.mean)
	var cands []scored
	for i, ref := range fp.rm.Refs {
		if ref.Loc.Floor != floor {
			continue
		}
		d, n := fp.signalDistance(w.mean, obsKeys, ref, fp.refKeys[i])
		if n == 0 {
			continue
		}
		cands = append(cands, scored{i: i, dist: d})
	}
	if len(cands) == 0 {
		return Estimate{}, false
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].i < cands[b].i
	})
	k := fp.cfg.K
	if k > len(cands) {
		k = len(cands)
	}
	var wx, wy, wsum float64
	first := fp.rm.Refs[cands[0].i].Loc
	for _, c := range cands[:k] {
		ref := fp.rm.Refs[c.i]
		wgt := 1 / (c.dist + 0.1)
		wx += ref.Loc.Point.X * wgt
		wy += ref.Loc.Point.Y * wgt
		wsum += wgt
	}
	pt := geom.Pt(wx/wsum, wy/wsum)
	loc := model.At(first.Building, first.Floor, first.Partition, pt)
	return Estimate{ObjID: w.objID, Loc: loc, T: w.t}, true
}

// bayesWindow computes the naive Bayes posterior over reference locations.
func (fp *Fingerprinting) bayesWindow(w window) (ProbEstimate, bool) {
	floor := fp.majorityFloorOf(w)
	obsKeys := sortedKeys(w.mean)
	type scored struct {
		i    int
		logp float64
	}
	var cands []scored
	for i, ref := range fp.rm.Refs {
		if ref.Loc.Floor != floor {
			continue
		}
		logp, n := fp.logLikelihood(w.mean, obsKeys, ref)
		if n == 0 {
			continue
		}
		cands = append(cands, scored{i: i, logp: logp})
	}
	if len(cands) == 0 {
		return ProbEstimate{}, false
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].logp != cands[b].logp {
			return cands[a].logp > cands[b].logp
		}
		return cands[a].i < cands[b].i
	})
	k := fp.cfg.K
	if k > len(cands) {
		k = len(cands)
	}
	cands = cands[:k]
	// Normalize in probability space, guarding against underflow.
	maxLog := cands[0].logp
	var total float64
	probs := make([]float64, len(cands))
	for i, c := range cands {
		probs[i] = math.Exp(c.logp - maxLog)
		total += probs[i]
	}
	pe := ProbEstimate{ObjID: w.objID, T: w.t}
	for i, c := range cands {
		pe.Candidates = append(pe.Candidates, Candidate{
			Loc:  fp.rm.Refs[c.i].Loc,
			Prob: probs[i] / total,
		})
	}
	return pe, true
}

// signalDistance is the Euclidean distance in signal space over the union of
// devices heard by the window and the reference, substituting MissingRSSI
// for unheard devices. It returns the distance and the number of devices
// compared.
func (fp *Fingerprinting) signalDistance(obs map[string]float64, obsKeys []string, ref RefPoint, refKeys []string) (float64, int) {
	// Iterate both maps through pre-sorted key slices: float accumulation
	// must not depend on Go's randomized map order, or identical runs drift
	// in the low bits and break the toolkit's seed-determinism guarantee.
	var sum float64
	n := 0
	for _, id := range obsKeys {
		v := obs[id]
		mean, ok := ref.Mean[id]
		if !ok {
			mean = fp.rm.MissingRSSI
		}
		d := v - mean
		sum += d * d
		n++
	}
	for _, id := range refKeys {
		if _, ok := obs[id]; ok {
			continue
		}
		d := fp.rm.MissingRSSI - ref.Mean[id]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Sqrt(sum / float64(n)), n
}

// sortedKeys returns m's keys in ascending order, for order-stable float
// accumulation.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// logLikelihood is the Gaussian naive Bayes log likelihood of the observed
// fingerprint at the reference point.
func (fp *Fingerprinting) logLikelihood(obs map[string]float64, obsKeys []string, ref RefPoint) (float64, int) {
	var lp float64
	n := 0
	for _, id := range obsKeys {
		v := obs[id]
		mean, ok := ref.Mean[id]
		sd := ref.Stddev[id]
		if !ok {
			mean, sd = fp.rm.MissingRSSI, 5
		}
		if sd <= 0 {
			sd = 1
		}
		z := (v - mean) / sd
		lp += -0.5*z*z - math.Log(sd)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return lp, n
}

// majorityFloorOf picks the floor of the devices dominating the window,
// falling back to the radio map's first reference floor when no observed
// device is known.
func (fp *Fingerprinting) majorityFloorOf(w window) int {
	counts := make(map[int]int)
	for id := range w.mean {
		if d, ok := fp.devs[id]; ok {
			counts[d.Floor]++
		}
	}
	best, bestN := fp.rm.Refs[0].Loc.Floor, 0
	for fl, n := range counts {
		if n > bestN || (n == bestN && fl < best) {
			best, bestN = fl, n
		}
	}
	return best
}
