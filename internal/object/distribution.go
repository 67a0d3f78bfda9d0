package object

import (
	"fmt"
	"sort"
	"strings"

	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/rng"
	"vita/internal/topo"
)

// Distribution places newly created objects in the building (paper §3.1
// "Initial Distribution").
type Distribution interface {
	// Place returns an initial location for one object.
	Place(t *topo.Topology, r *rng.Rand) (model.Location, error)
	// Name identifies the model in reports.
	Name() string
}

// Uniform distributes objects evenly over the whole building: a partition is
// chosen with probability proportional to its area, then a point uniformly
// inside it.
type Uniform struct{}

// Name implements Distribution.
func (Uniform) Name() string { return "uniform" }

// Place implements Distribution.
func (Uniform) Place(t *topo.Topology, r *rng.Rand) (model.Location, error) {
	parts := t.Partitions()
	weights := make([]float64, len(parts))
	for i, p := range parts {
		weights[i] = p.Polygon.Area()
	}
	if len(parts) == 0 {
		return model.Location{}, fmt.Errorf("object: building has no partitions")
	}
	p := parts[r.WeightedIndex(weights)]
	pt := topo.RandomPointIn(p, r.Float64)
	return model.At(t.B.ID, p.Floor, p.ID, pt), nil
}

// CrowdOutliers captures the paper's more common scenario: "a vast majority
// of objects are located around several hot areas to form crowds while
// others are distributed randomly as outliers", e.g. customers gathering
// around shops on sale.
type CrowdOutliers struct {
	// CrowdFraction is the probability a new object joins a crowd rather
	// than being an outlier. Typical: 0.8.
	CrowdFraction float64
	// CrowdRadius is the dispersion (m) of crowd members around the hot
	// area's anchor point.
	CrowdRadius float64
	// HotPartitions names the hot areas. Empty = auto-select: partitions
	// whose name contains "(on sale)", else the largest partitions.
	HotPartitions []string
	// NumHotAreas bounds auto-selection (default 3).
	NumHotAreas int
}

// Name implements Distribution.
func (CrowdOutliers) Name() string { return "crowd-outliers" }

// Place implements Distribution.
func (c CrowdOutliers) Place(t *topo.Topology, r *rng.Rand) (model.Location, error) {
	frac := c.CrowdFraction
	if frac <= 0 {
		frac = 0.8
	}
	radius := c.CrowdRadius
	if radius <= 0 {
		radius = 3
	}
	hot, err := c.hotAreas(t)
	if err != nil {
		return model.Location{}, err
	}
	if len(hot) == 0 || !r.Bool(frac) {
		return Uniform{}.Place(t, r) // outlier
	}
	p := hot[r.Intn(len(hot))]
	anchor := p.Center()
	// Gaussian scatter around the anchor, rejected into the partition.
	for i := 0; i < 64; i++ {
		pt := geom.Pt(anchor.X+r.Normal(0, radius/2), anchor.Y+r.Normal(0, radius/2))
		if p.Contains(pt) {
			return model.At(t.B.ID, p.Floor, p.ID, pt), nil
		}
	}
	return model.At(t.B.ID, p.Floor, p.ID, anchor), nil
}

// hotAreas resolves the configured or auto-selected hot partitions.
func (c CrowdOutliers) hotAreas(t *topo.Topology) ([]*model.Partition, error) {
	var out []*model.Partition
	if len(c.HotPartitions) > 0 {
		for _, id := range c.HotPartitions {
			found := false
			for _, p := range t.Partitions() {
				if p.ID == id || p.Parent == id {
					out = append(out, p)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("object: hot partition %q not found", id)
			}
		}
		return out, nil
	}
	// Auto: "(on sale)" shops first.
	for _, p := range t.Partitions() {
		if strings.Contains(strings.ToLower(p.Name), "(on sale)") {
			out = append(out, p)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	// Fallback: the largest non-hallway partitions.
	n := c.NumHotAreas
	if n <= 0 {
		n = 3
	}
	var all []*model.Partition
	for _, p := range t.Partitions() {
		if p.Kind != model.KindHallway && p.Kind != model.KindStaircase {
			all = append(all, p)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		ai, aj := all[i].Polygon.Area(), all[j].Polygon.Area()
		if ai != aj {
			return ai > aj
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}
