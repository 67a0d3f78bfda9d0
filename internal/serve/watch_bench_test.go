package serve_test

import (
	"testing"

	"vita/internal/geom"
	"vita/internal/serve"
)

// BenchmarkWatch replays a 100-object, 10-minute synthetic workload (~60k
// samples) through eight standing range queries, one Watch each.
// BenchmarkQueryWatch at the repo root runs it over real pipeline output.
func BenchmarkWatch(b *testing.B) {
	ds := served(b, syntheticSamples(16, 100, 600), serve.Config{})
	box := geom.BBox{Min: geom.Pt(20, 10), Max: geom.Pt(70, 40)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			if _, err := ds.Watch(serve.WatchRequest{Floor: j % 2, Box: box}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
