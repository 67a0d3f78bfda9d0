package geom_test

import (
	"testing"

	"vita/internal/geom"
	"vita/internal/ifc"
	"vita/internal/topo"
)

// BenchmarkCrossings times one line-of-sight query against the walls of the
// synthetic mall's ground floor: paths from a 4 × 3 grid of device-like
// anchors to a 16 × 8 grid of object positions spanning the floor, the shape
// of the RSSI generator's obstacle term. It reports ns per query.
func BenchmarkCrossings(b *testing.B) {
	f, err := ifc.Parse(ifc.MallIFC())
	if err != nil {
		b.Fatal(err)
	}
	bld, _, err := ifc.Extract(f, ifc.DefaultExtractOptions())
	if err != nil {
		b.Fatal(err)
	}
	tp, err := topo.Build(bld, topo.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walls := tp.B.Floors[0].WallSet()
	box := bld.Floors[0].BBox()
	grid := func(nx, ny int) []geom.Point {
		var out []geom.Point
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				out = append(out, geom.Pt(
					box.Min.X+(float64(i)+0.5)*box.Width()/float64(nx),
					box.Min.Y+(float64(j)+0.5)*box.Height()/float64(ny)))
			}
		}
		return out
	}
	anchors, positions := grid(4, 3), grid(16, 8)
	crossed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crossed += walls.Crossings(anchors[i%len(anchors)], positions[i%len(positions)])
	}
	b.StopTimer()
	if b.N >= len(positions) && crossed == 0 {
		b.Fatalf("no path crossed any of the %d walls", walls.Len())
	}
	b.ReportMetric(float64(walls.Len()), "walls")
}
