package topo

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/model"
)

// partitionAtCase is one building built at one MaxArea.
type partitionAtCase struct {
	name string
	tp   *Topology
}

var (
	partitionAtOnce  sync.Once
	partitionAtCases []partitionAtCase
	partitionAtErr   error
)

// partitionAtTopologies builds the default office, mall and clinic at
// MaxArea 120, 60 and 20, once per test binary.
func partitionAtTopologies(t testing.TB) []partitionAtCase {
	t.Helper()
	partitionAtOnce.Do(func() {
		for _, kind := range []struct {
			name  string
			build func() *model.Building
		}{
			{"office", func() *model.Building { return ifc.Office(ifc.DefaultOfficeSpec()) }},
			{"mall", func() *model.Building { return ifc.Mall(ifc.DefaultMallSpec()) }},
			{"clinic", func() *model.Building { return ifc.Clinic(ifc.DefaultClinicSpec()) }},
		} {
			for _, maxArea := range []float64{120, 60, 20} {
				tp, err := Build(kind.build(), Options{Decompose: true, MaxArea: maxArea})
				if err != nil {
					partitionAtErr = fmt.Errorf("%s at MaxArea %g: %w", kind.name, maxArea, err)
					return
				}
				partitionAtCases = append(partitionAtCases, partitionAtCase{fmt.Sprintf("%s/%g", kind.name, maxArea), tp})
			}
		}
	})
	if partitionAtErr != nil {
		t.Fatal(partitionAtErr)
	}
	return partitionAtCases
}

// oraclePartitionAt is the partition-at-point rule by brute force: of every
// partition on the floor containing pt, the smallest area, and on a tie the
// lowest partition number.
func oraclePartitionAt(tp *Topology, f *model.Floor, pt geom.Point) (*model.Partition, bool) {
	var best *model.Partition
	bestArea, bestNum := 0.0, 0
	for _, p := range f.Partitions {
		if !p.Polygon.Contains(pt) {
			continue
		}
		a := p.Polygon.Area()
		n, _ := tp.PartitionNumber(f.Level, p.ID)
		if best == nil || a < bestArea || (a == bestArea && n < bestNum) {
			best, bestArea, bestNum = p, a, n
		}
	}
	return best, best != nil
}

// checkPartitionAt reports whether Topology.PartitionAt agrees with the
// oracle at pt, and a description of the disagreement when it does not.
func checkPartitionAt(tp *Topology, f *model.Floor, pt geom.Point) (string, bool) {
	got, gotOK := tp.PartitionAt(f.Level, pt)
	want, wantOK := oraclePartitionAt(tp, f, pt)
	if got == want && gotOK == wantOK {
		return "", true
	}
	id := func(p *model.Partition) string {
		if p == nil {
			return "none"
		}
		return p.ID
	}
	return fmt.Sprintf("floor %d at (%g, %g): PartitionAt %s, oracle %s", f.Level, pt.X, pt.Y, id(got), id(want)), false
}

// boundaryProbes returns every partition vertex and edge midpoint on f.
func boundaryProbes(f *model.Floor) []geom.Point {
	var out []geom.Point
	for _, p := range f.Partitions {
		for _, e := range p.Polygon.Edges() {
			out = append(out, e.A, e.At(0.5))
		}
	}
	return out
}

// TestPartitionAtMatchesOracle probes every floor of each building on a
// lattice over its box grown by 0.5 m, and at every partition vertex and
// edge midpoint, where nested and adjacent partitions tie.
func TestPartitionAtMatchesOracle(t *testing.T) {
	const step = 0.25
	for _, c := range partitionAtTopologies(t) {
		t.Run(c.name, func(t *testing.T) {
			probes, bad := 0, 0
			for _, f := range c.tp.B.Floors {
				bb := f.BBox().Expand(0.5)
				pts := boundaryProbes(f)
				for x := bb.Min.X; x <= bb.Max.X; x += step {
					for y := bb.Min.Y; y <= bb.Max.Y; y += step {
						pts = append(pts, geom.Pt(x, y))
					}
				}
				for _, pt := range pts {
					probes++
					if msg, ok := checkPartitionAt(c.tp, f, pt); !ok {
						if bad < 5 {
							t.Error(msg)
						}
						bad++
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d probes disagree with the oracle", bad, probes)
			}
		})
	}
}

// FuzzPartitionAt lets the fuzzer pick the building, the MaxArea arm, the
// floor and the point; with probability 1/2 the point snaps to the nearest
// partition vertex or edge midpoint, so boundary ties get drawn.
func FuzzPartitionAt(f *testing.F) {
	cases := partitionAtTopologies(f)
	f.Add(uint8(0), uint8(0), uint8(1), 0.4, 0.0, uint8(0))
	f.Add(uint8(0), uint8(0), uint8(1), 0.4, 0.0, uint8(1))
	f.Add(uint8(1), uint8(1), uint8(0), 0.5, 0.5, uint8(0))
	f.Add(uint8(2), uint8(2), uint8(0), 0.9, 0.1, uint8(1))
	f.Fuzz(func(t *testing.T, building, arm, floor uint8, fx, fy float64, snap uint8) {
		c := cases[int(building)%3*3+int(arm)%3]
		fl := c.tp.B.Floors[int(floor)%len(c.tp.B.Floors)]
		bb := fl.BBox().Expand(0.5)
		unit := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Abs(math.Mod(v, 1))
		}
		pt := geom.Pt(bb.Min.X+unit(fx)*bb.Width(), bb.Min.Y+unit(fy)*bb.Height())
		if snap%2 == 0 {
			near, best := pt, math.Inf(1)
			for _, q := range boundaryProbes(fl) {
				if d := q.Dist(pt); d < best {
					near, best = q, d
				}
			}
			pt = near
		}
		if msg, ok := checkPartitionAt(c.tp, fl, pt); !ok {
			t.Errorf("%s: %s", c.name, msg)
		}
	})
}
