// Package positioning implements Vita's Positioning Method Controller (paper
// §2, §3.3): trilateration, fingerprinting (deterministic kNN and
// probabilistic naive Bayes) and proximity, all operating on the raw RSSI
// data produced by package rssi. Output formats follow paper §4.2.
package positioning

import (
	"fmt"

	"vita/internal/device"
	"vita/internal/model"
)

// Estimate is one deterministic positioning record (o_id, loc, t) — the
// output format of trilateration and deterministic fingerprinting.
type Estimate struct {
	ObjID int
	Loc   model.Location
	T     float64
}

// Candidate is one weighted location sample of a probabilistic estimate.
type Candidate struct {
	Loc  model.Location
	Prob float64
}

// ProbEstimate is one probabilistic positioning record
// (o_id, {(loc_i, prob_i)}, t) — the output format of probabilistic
// fingerprinting.
type ProbEstimate struct {
	ObjID      int
	Candidates []Candidate
	T          float64
}

// Top returns the most probable candidate.
func (p ProbEstimate) Top() (Candidate, bool) {
	if len(p.Candidates) == 0 {
		return Candidate{}, false
	}
	best := p.Candidates[0]
	for _, c := range p.Candidates[1:] {
		if c.Prob > best.Prob {
			best = c
		}
	}
	return best, true
}

// ProximityRecord states that object o_id was detected by device d_id from
// ts to te (paper §4.2).
type ProximityRecord struct {
	ObjID    int
	DeviceID string
	TS, TE   float64
}

// Duration returns the detection period length.
func (p ProximityRecord) Duration() float64 { return p.TE - p.TS }

// deviceIndex maps device IDs to devices, rejecting duplicates.
func deviceIndex(devs []*device.Device) (map[string]*device.Device, error) {
	idx := make(map[string]*device.Device, len(devs))
	for _, d := range devs {
		if _, dup := idx[d.ID]; dup {
			return nil, fmt.Errorf("positioning: duplicate device ID %s", d.ID)
		}
		idx[d.ID] = d
	}
	return idx, nil
}
