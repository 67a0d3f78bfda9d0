package device

import (
	"fmt"
	"math"
	"sort"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
)

// DeploymentModel selects how devices are placed on a floor (paper §3.2).
type DeploymentModel int

// Deployment models.
const (
	// Coverage places devices close to walls (for power supply) and
	// maximally separated from each other (for signal coverage) — the model
	// commonly used for access points.
	Coverage DeploymentModel = iota
	// CheckPoint places devices at entrances to rooms and at hotspots inside
	// large rooms.
	CheckPoint
)

// String implements fmt.Stringer.
func (m DeploymentModel) String() string {
	if m == CheckPoint {
		return "check-point"
	}
	return "coverage"
}

// ParseDeploymentModel parses a deployment model name.
func ParseDeploymentModel(s string) (DeploymentModel, error) {
	switch s {
	case "coverage":
		return Coverage, nil
	case "check-point", "checkpoint":
		return CheckPoint, nil
	default:
		return 0, fmt.Errorf("device: unknown deployment model %q", s)
	}
}

// DeploySpec configures one deployment run on one floor.
type DeploySpec struct {
	Model DeploymentModel
	Type  Type
	// Count is the number of devices to deploy (Coverage) or the cap on
	// devices (CheckPoint; 0 = no cap).
	Count int
	// Props overrides the per-type defaults when non-zero.
	Props *Properties
}

// Deploy places devices on the given floor of the building according to the
// spec and returns them. IDs are prefixed with the floor and type. The
// generator r drives tie-breaking; deployment is deterministic for a fixed
// seed.
func Deploy(b *model.Building, floor int, spec DeploySpec, r *rng.Rand) ([]*Device, error) {
	f, ok := b.Floor(floor)
	if !ok {
		return nil, fmt.Errorf("device: building %s has no floor %d", b.ID, floor)
	}
	props := DefaultProperties(spec.Type)
	if spec.Props != nil {
		props = *spec.Props
	}

	var positions []geom.Point
	switch spec.Model {
	case Coverage:
		if spec.Count <= 0 {
			return nil, fmt.Errorf("device: coverage deployment needs a positive Count")
		}
		positions = coveragePositions(f, spec.Count, r)
	case CheckPoint:
		positions = checkpointPositions(f)
		if spec.Count > 0 && len(positions) > spec.Count {
			positions = positions[:spec.Count]
		}
	default:
		return nil, fmt.Errorf("device: unknown deployment model %d", spec.Model)
	}

	out := make([]*Device, len(positions))
	for i, p := range positions {
		out[i] = &Device{
			ID:       fmt.Sprintf("%s-F%d-%s-%d", b.ID, floor, spec.Type, i+1),
			Type:     spec.Type,
			Floor:    floor,
			Position: p,
			Props:    props,
		}
	}
	return out, nil
}

// coveragePositions implements the coverage model: candidate points along
// partition walls, then farthest-point sampling for maximum separation.
func coveragePositions(f *model.Floor, count int, r *rng.Rand) []geom.Point {
	candidates := wallCandidates(f)
	if len(candidates) == 0 {
		return nil
	}
	if count >= len(candidates) {
		return candidates
	}
	// Farthest-point sampling: start from a random candidate, greedily add
	// the candidate maximizing the distance to the chosen set.
	chosen := make([]geom.Point, 0, count)
	chosen = append(chosen, candidates[r.Intn(len(candidates))])
	minDist := make([]float64, len(candidates))
	for i, c := range candidates {
		minDist[i] = c.Dist(chosen[0])
	}
	for len(chosen) < count {
		bestI := 0
		bestD := -1.0
		for i, d := range minDist {
			if d > bestD {
				bestD, bestI = d, i
			}
		}
		p := candidates[bestI]
		chosen = append(chosen, p)
		for i, c := range candidates {
			if d := c.Dist(p); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return chosen
}

// wallCandidates returns points along every partition boundary, pushed
// slightly toward the partition interior (devices hang on walls).
func wallCandidates(f *model.Floor) []geom.Point {
	const (
		spacing    = 4.0 // candidate every 4 m of wall
		wallOffset = 0.3 // devices sit this far (m) inside the wall
	)
	var out []geom.Point
	for _, p := range f.Partitions {
		center := p.Center()
		for _, e := range p.Polygon.Edges() {
			n := int(e.Length()/spacing) + 1
			for i := 0; i <= n; i++ {
				pt := e.At(float64(i) / float64(n))
				// Push toward the partition center so the device sits inside.
				dir := center.Sub(pt).Unit()
				in := pt.Add(dir.Scale(wallOffset))
				if p.Contains(in) {
					out = append(out, in)
				}
			}
		}
	}
	return out
}

// checkpointPositions implements the check-point model: a device at every
// door (room entrance) plus one at the center of each partition of at least
// hotspotMinArea (a hotspot). Results are ordered: doors first (by ID), then
// hotspots by decreasing area.
func checkpointPositions(f *model.Floor) []geom.Point {
	const hotspotMinArea = 80 // m²
	doors := append([]*model.Door(nil), f.Doors...)
	sort.Slice(doors, func(i, j int) bool { return doors[i].ID < doors[j].ID })
	var out []geom.Point
	for _, d := range doors {
		if d.Virtual() {
			continue // decomposition artifacts are not real entrances
		}
		out = append(out, d.Position)
	}
	type hs struct {
		pt   geom.Point
		area float64
	}
	var hotspots []hs
	for _, p := range f.Partitions {
		if a := p.Polygon.Area(); a >= hotspotMinArea {
			hotspots = append(hotspots, hs{pt: p.Center(), area: a})
		}
	}
	sort.Slice(hotspots, func(i, j int) bool {
		if hotspots[i].area != hotspots[j].area {
			return hotspots[i].area > hotspots[j].area
		}
		return less(hotspots[i].pt, hotspots[j].pt)
	})
	for _, h := range hotspots {
		out = append(out, h.pt)
	}
	return out
}

func less(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// MinPairwiseDistance returns the smallest pairwise distance among device
// positions — the separation statistic reported by experiment E2.
func MinPairwiseDistance(devs []*Device) float64 {
	best := math.Inf(1)
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			if d := devs[i].Position.Dist(devs[j].Position); d < best {
				best = d
			}
		}
	}
	return best
}

// MeanWallDistance returns the mean distance from each device to the nearest
// partition boundary on its floor — coverage-model devices should be
// wall-adjacent.
func MeanWallDistance(f *model.Floor, devs []*Device) float64 {
	if len(devs) == 0 {
		return 0
	}
	var total float64
	for _, d := range devs {
		best := math.Inf(1)
		for _, p := range f.Partitions {
			if dd := p.Polygon.DistToBoundary(d.Position); dd < best {
				best = dd
			}
		}
		total += best
	}
	return total / float64(len(devs))
}
