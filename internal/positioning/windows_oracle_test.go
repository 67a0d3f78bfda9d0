package positioning

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"vita/internal/device"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/rssi"
	"vita/internal/topo"
)

// The map-keyed positioning path as it was before windows became
// device-indexed: windowize built a map of per-window maps of per-device
// sums, and every method re-keyed each window through sorted string keys.
// It is kept as the oracle the device-indexed path must reproduce exactly.
// The one change is that oracleTrilaterate reports the smallest unknown
// device ID of the first failing window, where the original picked one in
// map order.

type oracleWindow struct {
	objID int
	t     float64
	mean  map[string]float64
}

func oracleWindowize(ms []rssi.Measurement, interval float64) []oracleWindow {
	if interval <= 0 {
		interval = 2
	}
	type key struct {
		obj int
		idx int64
	}
	type acc struct {
		sum   map[string]float64
		count map[string]int
	}
	buckets := make(map[key]*acc)
	for _, m := range ms {
		k := key{obj: m.ObjID, idx: int64(math.Floor(m.T / interval))}
		a, ok := buckets[k]
		if !ok {
			a = &acc{sum: make(map[string]float64), count: make(map[string]int)}
			buckets[k] = a
		}
		a.sum[m.DeviceID] += m.RSSI
		a.count[m.DeviceID]++
	}
	out := make([]oracleWindow, 0, len(buckets))
	for k, a := range buckets {
		w := oracleWindow{
			objID: k.obj,
			t:     (float64(k.idx) + 0.5) * interval,
			mean:  make(map[string]float64, len(a.sum)),
		}
		for d, s := range a.sum {
			w.mean[d] = s / float64(a.count[d])
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].objID != out[j].objID {
			return out[i].objID < out[j].objID
		}
		return out[i].t < out[j].t
	})
	return out
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func oracleTrilaterate(tr *Trilateration, devs []*device.Device, ms []rssi.Measurement) ([]Estimate, error) {
	idx, err := deviceIndex(devs)
	if err != nil {
		return nil, err
	}
	var out []Estimate
	for _, w := range oracleWindowize(ms, tr.cfg.SampleInterval) {
		est, ok, err := oracleTrilaterateWindow(tr.cfg, tr.topo, idx, w)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, est)
		}
	}
	return out, nil
}

func oracleTrilaterateWindow(cfg TrilaterationConfig, t *topo.Topology, devs map[string]*device.Device, w oracleWindow) (Estimate, bool, error) {
	byFloor := make(map[int][]string)
	for _, id := range sortedKeys(w.mean) {
		d, ok := devs[id]
		if !ok {
			return Estimate{}, false, fmt.Errorf("positioning: measurement references unknown device %s", id)
		}
		byFloor[d.Floor] = append(byFloor[d.Floor], id)
	}
	bestFloor, bestN := 0, 0
	for fl, ids := range byFloor {
		if len(ids) > bestN || (len(ids) == bestN && fl < bestFloor) {
			bestFloor, bestN = fl, len(ids)
		}
	}
	if bestN < cfg.MinDevices {
		return Estimate{}, false, nil
	}
	ids := byFloor[bestFloor]
	sort.Slice(ids, func(i, j int) bool {
		if w.mean[ids[i]] != w.mean[ids[j]] {
			return w.mean[ids[i]] > w.mean[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > cfg.MaxDevices {
		ids = ids[:cfg.MaxDevices]
	}
	type circle struct {
		c geom.Point
		r float64
	}
	circles := make([]circle, 0, len(ids))
	for _, id := range ids {
		d := devs[id]
		r := cfg.Convert(w.mean[id], d)
		if max := d.Props.DetectionRange; max > 0 && r > max {
			r = max
		}
		circles = append(circles, circle{c: d.Position, r: r})
	}
	x0, y0, r0 := circles[0].c.X, circles[0].c.Y, circles[0].r
	var a11, a12, a22, b1, b2 float64
	for _, ci := range circles[1:] {
		ax := 2 * (ci.c.X - x0)
		ay := 2 * (ci.c.Y - y0)
		rhs := r0*r0 - ci.r*ci.r + ci.c.X*ci.c.X - x0*x0 + ci.c.Y*ci.c.Y - y0*y0
		a11 += ax * ax
		a12 += ax * ay
		a22 += ay * ay
		b1 += ax * rhs
		b2 += ay * rhs
	}
	det := a11*a22 - a12*a12
	if math.Abs(det) < 1e-9 {
		return Estimate{}, false, nil
	}
	x := (b1*a22 - b2*a12) / det
	y := (a11*b2 - a12*b1) / det
	pt := oracleClampToFloor(t, bestFloor, geom.Pt(x, y))
	return Estimate{ObjID: w.objID, Loc: modelLocation(t, bestFloor, pt), T: w.t}, true, nil
}

func oracleClampToFloor(t *topo.Topology, floor int, pt geom.Point) geom.Point {
	f, ok := t.B.Floor(floor)
	if !ok {
		return pt
	}
	bb := f.BBox()
	if bb.IsEmpty() {
		return pt
	}
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

// oracleFingerprint is the map-keyed online phase over fp's radio map.
type oracleFingerprint struct {
	cfg     FingerprintConfig
	rm      *RadioMap
	devs    map[string]*device.Device
	refKeys [][]string
}

func newOracleFingerprint(fp *Fingerprinting, devs []*device.Device) (*oracleFingerprint, error) {
	idx, err := deviceIndex(devs)
	if err != nil {
		return nil, err
	}
	o := &oracleFingerprint{cfg: fp.cfg, rm: fp.rm, devs: idx}
	for _, ref := range fp.rm.Refs {
		o.refKeys = append(o.refKeys, sortedKeys(ref.Mean))
	}
	return o, nil
}

func (fp *oracleFingerprint) knn(ms []rssi.Measurement) []Estimate {
	var out []Estimate
	for _, w := range oracleWindowize(ms, fp.cfg.SampleInterval) {
		if est, ok := fp.knnWindow(w); ok {
			out = append(out, est)
		}
	}
	return out
}

func (fp *oracleFingerprint) bayes(ms []rssi.Measurement) []ProbEstimate {
	var out []ProbEstimate
	for _, w := range oracleWindowize(ms, fp.cfg.SampleInterval) {
		if pe, ok := fp.bayesWindow(w); ok {
			out = append(out, pe)
		}
	}
	return out
}

func (fp *oracleFingerprint) knnWindow(w oracleWindow) (Estimate, bool) {
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
	k := min(fp.cfg.K, len(cands))
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
	return Estimate{ObjID: w.objID, Loc: model.At(first.Building, first.Floor, first.Partition, pt), T: w.t}, true
}

func (fp *oracleFingerprint) bayesWindow(w oracleWindow) (ProbEstimate, bool) {
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
	cands = cands[:min(fp.cfg.K, len(cands))]
	maxLog := cands[0].logp
	var total float64
	probs := make([]float64, len(cands))
	for i, c := range cands {
		probs[i] = math.Exp(c.logp - maxLog)
		total += probs[i]
	}
	pe := ProbEstimate{ObjID: w.objID, T: w.t}
	for i, c := range cands {
		pe.Candidates = append(pe.Candidates, Candidate{Loc: fp.rm.Refs[c.i].Loc, Prob: probs[i] / total})
	}
	return pe, true
}

func (fp *oracleFingerprint) signalDistance(obs map[string]float64, obsKeys []string, ref RefPoint, refKeys []string) (float64, int) {
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

func (fp *oracleFingerprint) logLikelihood(obs map[string]float64, obsKeys []string, ref RefPoint) (float64, int) {
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

func (fp *oracleFingerprint) majorityFloorOf(w oracleWindow) int {
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

// oracleDeployment is the deployment the generated comparisons run on:
// devices on two floors, listed out of ID order, with IDs whose sorted
// order differs from their numbering, and a radio map that also knows a
// device the deployment lacks and has references without some stddevs.
type oracleDeployment struct {
	topo *topo.Topology
	devs []*device.Device
	rm   *RadioMap
}

func newOracleDeployment(t testing.TB) oracleDeployment {
	t.Helper()
	tp := officeTopo(t)
	props := device.DefaultProperties(device.WiFi)
	props.DetectionRange = 30
	var devs []*device.Device
	for i, p := range []geom.Point{
		geom.Pt(2, 2), geom.Pt(18, 3), geom.Pt(35, 4), geom.Pt(6, 15), geom.Pt(30, 16), geom.Pt(20, 10),
	} {
		for fl := 0; fl < 2; fl++ {
			devs = append(devs, &device.Device{
				ID: fmt.Sprintf("d%d-%d", (i*7)%10, fl), Type: device.WiFi, Floor: fl, Position: p, Props: props,
			})
		}
	}
	// List the devices against their ID order.
	for i, j := 0, len(devs)-1; i < j; i, j = i+1, j-1 {
		devs[i], devs[j] = devs[j], devs[i]
	}
	rm, err := BuildRadioMap(tp, devs, RadioMapConfig{Spacing: 6, Model: rssi.DefaultPathLossModel()}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rm.Devices = append(rm.Devices, "d5-map-only")
	for i := range rm.Refs {
		switch i % 5 {
		case 1:
			rm.Refs[i].Mean["d5-map-only"] = -70 - float64(i%7)
			rm.Refs[i].Stddev["d5-map-only"] = 2
		case 3:
			if ids := sortedKeys(rm.Refs[i].Stddev); len(ids) > 0 {
				delete(rm.Refs[i].Stddev, ids[0])
			}
		}
	}
	return oracleDeployment{topo: tp, devs: devs, rm: rm}
}

// compare runs every method on ms through both paths and fails on any
// difference.
func (d oracleDeployment) compare(t testing.TB, where string, ms []rssi.Measurement, interval float64, k int) {
	t.Helper()
	tr, err := NewTrilateration(d.topo, d.devs, TrilaterationConfig{SampleInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := tr.Estimate(ms)
	want, wantErr := oracleTrilaterate(tr, d.devs, ms)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: trilateration %d estimates, err %v; oracle %d, err %v", where, len(got), gotErr, len(want), wantErr)
	}
	for _, algo := range []FingerprintAlgorithm{KNN, NaiveBayes} {
		fp, err := NewFingerprinting(d.rm, d.devs, FingerprintConfig{Algorithm: algo, K: k, SampleInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		ofp, err := newOracleFingerprint(fp, d.devs)
		if err != nil {
			t.Fatal(err)
		}
		est, err := fp.Estimate(ms)
		if err != nil {
			t.Fatal(err)
		}
		if algo == KNN {
			if want := ofp.knn(ms); !reflect.DeepEqual(est, want) {
				t.Fatalf("%s: kNN %d estimates, oracle %d", where, len(est), len(want))
			}
			continue
		}
		pes, err := fp.EstimateProbabilistic(ms)
		if err != nil {
			t.Fatal(err)
		}
		want := ofp.bayes(ms)
		if !reflect.DeepEqual(pes, want) {
			t.Fatalf("%s: naive Bayes %d estimates, oracle %d", where, len(pes), len(want))
		}
		if !reflect.DeepEqual(est, TopEstimates(want)) {
			t.Fatalf("%s: naive Bayes argmax %d estimates, oracle %d", where, len(est), len(want))
		}
	}
}

// oracleCase generates one input: measurements of a few objects, several
// readings per (window, device), RSSI drawn from a coarse grid so device
// means tie, windows that hear as many devices on each floor, optional
// unknown device IDs (one sorting between deployed IDs), shuffled.
func (d oracleDeployment) oracleCase(r *rand.Rand, unknown bool) []rssi.Measurement {
	var ms []rssi.Measurement
	objects := 1 + r.IntN(4)
	for o := 0; o < objects; o++ {
		obj := 1 + r.IntN(6)
		for tt := 0; tt < 12+r.IntN(30); tt++ {
			t := float64(tt) + []float64{0, 0.5, 0.25, 0.999}[r.IntN(4)]
			// Hear n devices of each floor: a tie when the counts match.
			perFloor := [2]int{r.IntN(5), r.IntN(5)}
			if r.IntN(3) == 0 {
				perFloor[1] = perFloor[0]
			}
			for _, dev := range d.devs {
				if perFloor[dev.Floor] == 0 || r.IntN(2) == 0 {
					continue
				}
				perFloor[dev.Floor]--
				for rep := 1 + r.IntN(2); rep > 0; rep-- {
					ms = append(ms, rssi.Measurement{ObjID: obj, DeviceID: dev.ID, RSSI: -40 - 5*float64(r.IntN(8)), T: t})
				}
			}
		}
	}
	if unknown {
		for _, id := range []string{"ghost", "d5-0x"} {
			at := r.IntN(len(ms) + 1)
			m := rssi.Measurement{ObjID: 1 + r.IntN(6), DeviceID: id, RSSI: -60, T: float64(r.IntN(40))}
			ms = append(ms[:at], append([]rssi.Measurement{m}, ms[at:]...)...)
		}
	}
	r.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// TestWindowsMatchOracle: trilateration, kNN and naive Bayes over
// device-indexed windows are deep-equal to the map-keyed oracle on generated
// inputs — duplicate (window, device) readings, tied means and tied floor
// counts, unknown device IDs (trilateration: the same error), empty input,
// and several objects in any order — at three window lengths.
func TestWindowsMatchOracle(t *testing.T) {
	d := newOracleDeployment(t)
	d.compare(t, "empty", nil, 2, 3)
	r := rand.New(rand.NewPCG(25, 3))
	for i := 0; i < 120; i++ {
		unknown := i%6 == 5
		interval := []float64{2, 5, 0.7}[i%3]
		d.compare(t, fmt.Sprintf("case %d (interval %g, unknown %v)", i, interval, unknown),
			d.oracleCase(r, unknown), interval, 1+i%4)
	}
}

// FuzzPositioningWindows drives the same comparison from fuzzer bytes: every
// four bytes are one reading (object, device — or an unknown ID —, instant
// and RSSI on coarse grids so windows, duplicates and ties are common).
func FuzzPositioningWindows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 4})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 13, 0, 0})
	f.Add([]byte{1, 5, 9, 200, 2, 7, 9, 200, 2, 9, 9, 200, 1, 11, 9, 200, 3, 12, 1, 7})
	d := newOracleDeployment(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		interval := []float64{2, 5, 0.7, 1}[data[0]%4]
		k := 1 + int(data[0]/4)%5
		var ms []rssi.Measurement
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			id := "ghost"
			if i := int(b[1]) % (len(d.devs) + 1); i < len(d.devs) {
				id = d.devs[i].ID
			}
			ms = append(ms, rssi.Measurement{
				ObjID:    int(b[0] % 5),
				DeviceID: id,
				T:        float64(int(b[2])-32) / 4,
				RSSI:     -35 - float64(b[3]%12)*4,
			})
		}
		d.compare(t, "fuzz", ms, interval, k)
	})
}
