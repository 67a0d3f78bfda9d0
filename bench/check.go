package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"
	"sort"

	"vita/internal/serve"
	"vita/internal/trajectory"
)

// oracleChecks is how many range and how many traj requests of a list are
// compared with the brute-force filter.
const oracleChecks = 100

// parityChecks is how many requests per operator http_hot answers through
// both Dataset and Client to compare the bodies byte for byte.
const parityChecks = 20

// oracle answers range and traj by filtering the rows captured at the sink
// boundary — no index, no zone map, no cache between it and the data.
type oracle struct {
	rows   []trajectory.Sample
	sorted bool
}

// window returns the slice of rows that can fall in [t0, t1]: a binary
// search when the sink saw time order, else everything.
func (o oracle) window(t0, t1 float64) []trajectory.Sample {
	if !o.sorted {
		return o.rows
	}
	lo := sort.Search(len(o.rows), func(i int) bool { return o.rows[i].T >= t0 })
	hi := sort.Search(len(o.rows), func(i int) bool { return o.rows[i].T > t1 })
	return o.rows[lo:hi]
}

func (o oracle) rangeHits(q serve.RangeRequest) (hits []trajectory.Sample, objects []int) {
	for _, s := range o.window(q.T0, q.T1) {
		if s.T < q.T0 || s.T > q.T1 || (q.Floor >= 0 && s.Loc.Floor != q.Floor) || !q.Box.Contains(s.Loc.Point) {
			continue
		}
		hits = append(hits, s)
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].ObjID != hits[j].ObjID {
			return hits[i].ObjID < hits[j].ObjID
		}
		return hits[i].T < hits[j].T
	})
	for _, s := range hits {
		if n := len(objects); n == 0 || objects[n-1] != s.ObjID {
			objects = append(objects, s.ObjID)
		}
	}
	return hits, objects
}

func (o oracle) trajSamples(q serve.TrajRequest) []trajectory.Sample {
	var out []trajectory.Sample
	for _, s := range o.window(q.T0, q.T1) {
		if s.ObjID == q.Obj && s.T >= q.T0 && s.T <= q.T1 {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// check compares one answer with the oracle. Operators the oracle does not
// model are vacuously right here; digests and parity cover them.
func (o oracle) check(r *request, a answer) error {
	switch r.op {
	case opRange:
		resp := a.body.(*serve.RangeResponse)
		hits, objects := o.rangeHits(r.rangeQ)
		if !slices.Equal(resp.Hits, hits) || !slices.Equal(resp.Objects, objects) {
			return fmt.Errorf("range %+v: got %d hits / %d objects, brute force finds %d / %d",
				r.rangeQ, len(resp.Hits), len(resp.Objects), len(hits), len(objects))
		}
	case opTraj:
		resp := a.body.(*serve.TrajResponse)
		want := o.trajSamples(r.traj)
		if !slices.Equal(resp.Samples, want) {
			return fmt.Errorf("traj %+v: got %d samples, brute force finds %d", r.traj, len(resp.Samples), len(want))
		}
	}
	return nil
}

type digest [sha256.Size]byte

func digestOf(a answer) (digest, error) {
	b, err := json.Marshal(a.body) // stats and trace are already out of it
	if err != nil {
		return digest{}, err
	}
	return sha256.Sum256(b), nil
}

// rollUp folds per-request digests, in list order, into one digest per
// operator — enough to tell which operator's answers moved.
func rollUp(list []request, digests []digest) map[string]string {
	var hs [numOps]hash.Hash
	for i := range list {
		op := list[i].op
		if hs[op] == nil {
			hs[op] = sha256.New()
		}
		hs[op].Write(digests[i][:])
	}
	out := map[string]string{}
	for op, h := range hs {
		if h != nil {
			out[opNames[op]] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

// golden.json pins, for seed 1 at full size, the digest of every workload's
// answers: a change that makes the system answer differently fails here even
// where the oracle cannot follow (knn, density, dwell interpolate).
//
//go:embed golden.json
var goldenRaw []byte

type goldenFile struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	err := json.Unmarshal(goldenRaw, &g)
	return g, err
}

// checkGolden compares a workload's digests with the committed ones. It
// applies only to the pinned seed at full size.
func checkGolden(name string, seed uint64, quick bool, got map[string]string) error {
	g, err := loadGolden()
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if quick || seed != g.Seed {
		return nil
	}
	want, ok := g.Digests[name]
	if !ok {
		return fmt.Errorf("golden.json has no digests for %s", name)
	}
	for key, w := range want {
		if got[key] != w {
			return fmt.Errorf("%s/%s: digest %s, golden.json says %s", name, key, got[key], w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d digests, golden.json has %d", name, len(got), len(want))
	}
	return nil
}
